#include "functional_unit.hh"

#include "util/logging.hh"

namespace aurora::fpu
{

FunctionalUnit::FunctionalUnit(const FpUnitConfig &config,
                               std::string name)
    : config_(config), name_(std::move(name))
{
    AURORA_ASSERT(config_.latency >= 1,
                  "functional unit latency must be >= 1");
}

bool
FunctionalUnit::canIssue(Cycle now) const
{
    return freeAt() <= now;
}

Cycle
FunctionalUnit::issue(Cycle now)
{
    AURORA_ASSERT(canIssue(now), "issue to busy unit ", name_);
    ++ops_;
    lastIssue_ = now;
    busyUntil_ = now + config_.latency;
    return now + config_.latency;
}

} // namespace aurora::fpu
