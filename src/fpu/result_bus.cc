#include "result_bus.hh"

#include "util/logging.hh"

namespace aurora::fpu
{

ResultBusSchedule::ResultBusSchedule(unsigned buses)
    : buses_(buses)
{
    // buses == 0 is a representable (if useless) machine: canReserve
    // never holds, so no FP operation ever completes. The config
    // layer permits it as the canonical liveness wedge the forward-
    // progress watchdog detects at run time.
}

void
ResultBusSchedule::advance(Cycle now)
{
    // Clear every slot that fell out of the past. A jump of a whole
    // window or more (an idle span the processor skipped) clears them
    // all in one pass.
    if (now >= horizon_ + WINDOW) {
        counts_.fill(0);
        horizon_ = now;
        return;
    }
    while (horizon_ < now) {
        counts_[horizon_ % WINDOW] = 0;
        ++horizon_;
    }
}

bool
ResultBusSchedule::canReserve(Cycle when) const
{
    AURORA_ASSERT(when >= horizon_, "reservation in the past");
    AURORA_ASSERT(when < horizon_ + WINDOW,
                  "reservation beyond the scheduling window");
    return counts_[when % WINDOW] < buses_;
}

void
ResultBusSchedule::reserve(Cycle when)
{
    AURORA_ASSERT(canReserve(when), "result bus overcommitted");
    ++counts_[when % WINDOW];
}

} // namespace aurora::fpu
