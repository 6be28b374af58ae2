/**
 * @file
 * FPU functional unit timing model.
 *
 * A pipelined unit accepts one operation per cycle; an iterative unit
 * (the area-reduced multiply and the SRT divider of §5.10) is busy for
 * its full latency. Both produce a result after `latency` cycles that
 * must win a result bus slot.
 */

#ifndef AURORA_FPU_FUNCTIONAL_UNIT_HH
#define AURORA_FPU_FUNCTIONAL_UNIT_HH

#include <string>
#include <utility>

#include "fpu_config.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace aurora::fpu
{

/** Timing model of one FP execution unit. */
class FunctionalUnit
{
  public:
    FunctionalUnit(const FpUnitConfig &config, std::string name)
        : config_(config), name_(std::move(name))
    {
        AURORA_ASSERT(config_.latency >= 1,
                      "functional unit latency must be >= 1");
    }

    /** Can an operation start at @p now? */
    bool canIssue(Cycle now) const { return freeAt() <= now; }

    /** First cycle canIssue() holds (0 before the first issue). */
    Cycle
    freeAt() const
    {
        if (config_.pipelined)
            return lastIssue_ == NEVER ? 0 : lastIssue_ + 1;
        return busyUntil_;
    }

    /**
     * Start an operation at @p now (canIssue must hold).
     * @return completion cycle.
     */
    Cycle
    issue(Cycle now)
    {
        AURORA_ASSERT(canIssue(now), "issue to busy unit ", name_);
        ++ops_;
        lastIssue_ = now;
        busyUntil_ = now + config_.latency;
        return now + config_.latency;
    }

    /** Operations executed. */
    Count ops() const { return ops_; }

    const std::string &name() const { return name_; }
    const FpUnitConfig &config() const { return config_; }

  private:
    FpUnitConfig config_;
    std::string name_;
    Cycle busyUntil_ = 0;  ///< iterative units: next free cycle
    Cycle lastIssue_ = NEVER; ///< pipelined units: initiation interval
    Count ops_ = 0;
};

} // namespace aurora::fpu

#endif // AURORA_FPU_FUNCTIONAL_UNIT_HH
