/**
 * @file
 * Forward-progress watchdog for the Processor main loop.
 *
 * Configuration validation is structural, not a liveness proof: a
 * machine can pass every check and still never retire an instruction
 * (the canonical example is fp_buses=0, a bus-starved FPU whose
 * decoupling queue fills and blocks issue forever). In a design-space
 * sweep such a point used to wedge the whole run. The watchdog
 * converts the wedge into a structured, recoverable error: if no
 * instruction retires for `stall_limit` cycles, or the hard
 * `cycle_budget` is exhausted, Processor::advance() throws a
 * WatchdogError carrying a WatchdogDiagnostic snapshot of the stuck
 * machine (cycle, retirement history, per-cause stall cycles, ROB and
 * FPU queue occupancy) so the sweep summary can say *why* the point
 * failed.
 */

#ifndef AURORA_CORE_WATCHDOG_HH
#define AURORA_CORE_WATCHDOG_HH

#include <cstddef>
#include <string>

#include "stall.hh"
#include "util/sim_error.hh"
#include "util/types.hh"

namespace aurora::core
{

/** Default no-retirement window before the watchdog trips. */
inline constexpr Cycle DEFAULT_WATCHDOG_CYCLES = 100'000;

/** Watchdog policy for one Processor run. */
struct WatchdogConfig
{
    /**
     * Trip with NoForwardProgress after this many consecutive cycles
     * without a retirement. 0 disables the progress check. The
     * default is far above any legitimate retirement gap (the worst
     * healthy gap is a few memory latencies, i.e. tens of cycles).
     * advance() pays one compare per cycle for all three checks: it
     * compares the clock against the earliest cycle any of them
     * could trip, and re-checks only on reaching it (about once per
     * stall_limit cycles in a healthy run).
     */
    Cycle stall_limit = DEFAULT_WATCHDOG_CYCLES;

    /**
     * Trip with CycleBudgetExceeded once the simulated clock reaches
     * this cycle. 0 means unlimited. Useful as a hard upper bound on
     * grid points whose run time is unknown by construction.
     */
    Cycle cycle_budget = 0;

    /**
     * Trip with Timeout once the run has consumed this much
     * *wall-clock* time, in milliseconds, counting only the time the
     * machine itself spent stepping (Processor::advance), not time it
     * waited while others sharing its trace ran. 0 means unlimited.
     * Unlike
     * the two simulated-time knobs this bounds host time: a job that
     * is merely pathologically slow (live but crawling) cannot hold a
     * sweep worker hostage for unbounded real time. Checked every
     * 1024 simulated cycles, so a healthy run pays nothing
     * measurable. Which *outcome* a job produces near the boundary
     * is timing-dependent by nature; the simulated statistics of a
     * run that completes are never affected.
     */
    std::uint64_t deadline_ms = 0;
};

/**
 * The default policy: a DEFAULT_WATCHDOG_CYCLES stall limit, no
 * cycle budget, no wall-clock deadline.
 */
constexpr WatchdogConfig
defaultWatchdog()
{
    return {DEFAULT_WATCHDOG_CYCLES, 0};
}

/** State of the machine at the moment a watchdog fired. */
struct WatchdogDiagnostic
{
    /** Machine name (MachineConfig::name). */
    std::string model;
    /** Policy that was in force. */
    WatchdogConfig watchdog;
    /** Simulated cycle at the trip. */
    Cycle cycle = 0;
    /** Instructions issued so far. */
    Count instructions = 0;
    /** Instructions retired so far. */
    Count retired = 0;
    /** Cycle of the most recent retirement (0 = never). */
    Cycle last_retire_cycle = 0;
    /** Per-cause issue-stall cycles at the trip. */
    StallCycles stalls{};
    /** IPU reorder buffer occupancy / capacity. */
    std::size_t rob_size = 0;
    std::size_t rob_capacity = 0;
    /** FPU decoupling queue occupancies / capacities. */
    std::size_t fp_instq_size = 0;
    std::size_t fp_instq_capacity = 0;
    std::size_t fp_loadq_size = 0;
    std::size_t fp_loadq_capacity = 0;
    std::size_t fp_storeq_size = 0;
    std::size_t fp_storeq_capacity = 0;

    /** One-line rendering for error messages and sweep summaries. */
    std::string toString() const;
};

/**
 * SimError raised by a watchdog trip; code() is NoForwardProgress or
 * CycleBudgetExceeded and diagnostic() holds the machine snapshot.
 */
class WatchdogError : public util::SimError
{
  public:
    WatchdogError(util::SimErrorCode code, WatchdogDiagnostic diag);

    const WatchdogDiagnostic &diagnostic() const { return diag_; }

  private:
    WatchdogDiagnostic diag_;
};

} // namespace aurora::core

#endif // AURORA_CORE_WATCHDOG_HH
