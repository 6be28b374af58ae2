/**
 * @file
 * Result bus scheduler.
 *
 * The FPU writes functional-unit results to the reorder buffer over a
 * small number of shared result busses (two in the recommended
 * configuration). An instruction may only issue if a bus slot is free
 * at its completion cycle; conflicts are one of the dual-issue
 * constraints listed in §5.8.
 */

#ifndef AURORA_FPU_RESULT_BUS_HH
#define AURORA_FPU_RESULT_BUS_HH

#include <array>
#include <cstdint>

#include "util/logging.hh"
#include "util/types.hh"

namespace aurora::fpu
{

/**
 * Sliding-window reservation table for the result busses.
 *
 * Cycle t counts in ring slot t % WINDOW. Each slot is stamped with
 * the cycle it counts, so a slot whose stamp is an earlier lap's cycle
 * reads as empty: moving the window forward, by one cycle or across a
 * skipped idle span of any length, clears nothing.
 */
class ResultBusSchedule
{
  public:
    /** Longest schedulable distance into the future, cycles. */
    static constexpr std::size_t WINDOW = 256;

    /**
     * buses == 0 is a representable (if useless) machine: canReserve
     * never holds, so no FP operation ever completes. The config
     * layer permits it as the canonical liveness wedge the forward-
     * progress watchdog detects at run time.
     */
    explicit ResultBusSchedule(unsigned buses) : buses_(buses) {}

    /** Release reservations for cycles before @p now. */
    void
    advance(Cycle now)
    {
        if (now > horizon_)
            horizon_ = now;
    }

    /** Is a bus free at cycle @p when? */
    bool
    canReserve(Cycle when) const
    {
        AURORA_ASSERT(when >= horizon_, "reservation in the past");
        AURORA_ASSERT(when < horizon_ + WINDOW,
                      "reservation beyond the scheduling window");
        const Slot &slot = slots_[when % WINDOW];
        return (slot.cycle == when ? slot.count : 0u) < buses_;
    }

    /** Claim a bus at cycle @p when (canReserve must hold). */
    void
    reserve(Cycle when)
    {
        AURORA_ASSERT(canReserve(when), "result bus overcommitted");
        Slot &slot = slots_[when % WINDOW];
        if (slot.cycle != when)
            slot = Slot{when, 0};
        ++slot.count;
    }

    unsigned buses() const { return buses_; }

  private:
    /** Reservations at one cycle; stale unless cycle matches. */
    struct Slot
    {
        Cycle cycle = 0;
        std::uint8_t count = 0;
    };

    unsigned buses_;
    std::array<Slot, WINDOW> slots_{};
    Cycle horizon_ = 0; ///< reservations below horizon_ are released
};

} // namespace aurora::fpu

#endif // AURORA_FPU_RESULT_BUS_HH
