/**
 * @file
 * High-level simulation facade — the library's main entry point.
 *
 * Wraps workload construction, trace limiting, processor
 * instantiation, and suite-level aggregation so an experiment is one
 * call: simulate(machine, benchmark, instructions). Machines that
 * replay the same trace (the paper's paired method) run together
 * through simulateShared(), which synthesizes that trace once.
 */

#ifndef AURORA_CORE_SIMULATOR_HH
#define AURORA_CORE_SIMULATOR_HH

#include <exception>
#include <span>
#include <vector>

#include "machine_config.hh"
#include "processor.hh"
#include "trace/workload_profile.hh"
#include "util/stats.hh"

namespace aurora::core
{

/** Default instruction budget per benchmark run. */
inline constexpr Count DEFAULT_RUN_INSTS = 400'000;

/**
 * Run @p profile on @p machine for @p instructions dynamic
 * instructions (the paper truncates benchmarks the same way, §4.1).
 *
 * @param watchdog forward-progress policy (see watchdog.hh); the
 *        default derives from AURORA_WATCHDOG_CYCLES. A run that
 *        trips it throws WatchdogError; an invalid @p machine throws
 *        util::SimError (BadConfig).
 * @param observer optional pipeline observer attached for the run
 *        (telemetry samplers, tracers). Observers only read machine
 *        state: results are bit-identical with or without one.
 */
RunResult simulate(const MachineConfig &machine,
                   const trace::WorkloadProfile &profile,
                   Count instructions = DEFAULT_RUN_INSTS,
                   const WatchdogConfig &watchdog = defaultWatchdog(),
                   PipelineObserver *observer = nullptr);

/** One machine's part of a simulateShared() group. */
struct SharedMachineRun
{
    /** Valid only when error is null. */
    RunResult result;
    /**
     * What this machine raised — util::SimError (BadConfig, an audit
     * failure), WatchdogError, or anything else; null on success.
     */
    std::exception_ptr error;
    /**
     * Host seconds: this machine's own construction, stepping and
     * finish, plus an equal share of the group's trace synthesis, so
     * the members' seconds sum to the group's host time.
     */
    double seconds = 0.0;
};

/** Everything one simulateShared() call produced. */
struct SharedRun
{
    /** One entry per machine, in input order. */
    std::vector<SharedMachineRun> machines;
    /** Trace instructions synthesized for the whole group. */
    Count synthesized = 0;
};

/**
 * Run @p profile for @p instructions on every machine of @p machines
 * in lockstep over one synthesized trace. Each round synthesizes the
 * trace in blocks into a fixed window of recent instructions, up to
 * one window past the slowest machine, then advances every live
 * machine until it finishes or would read past the window
 * (Processor::advance). Every machine sees exactly the stream a
 * simulate() of its own would, so results are bit-identical to that.
 *
 * Failures are isolated: a machine that throws (invalid config,
 * watchdog trip, deadline) ends with its error set and the rest run
 * on. Each machine's wall-clock deadline counts only its own
 * stepping time. Only a failure of the shared trace itself (out of
 * memory) propagates.
 *
 * @param observers empty, or one observer (or nullptr) per machine.
 */
SharedRun simulateShared(std::span<const MachineConfig> machines,
                         const trace::WorkloadProfile &profile,
                         Count instructions = DEFAULT_RUN_INSTS,
                         const WatchdogConfig &watchdog = defaultWatchdog(),
                         std::span<PipelineObserver *const> observers = {});

/** A full benchmark-suite sweep on one machine. */
struct SuiteResult
{
    MachineConfig machine;
    std::vector<RunResult> runs;

    /** CPI summary across the suite (Figure 4 error bars). */
    Accumulator cpiStats() const;
    /** Arithmetic-mean CPI across benchmarks. */
    double avgCpi() const;
    /** Mean CPI penalty for @p cause across benchmarks. */
    double avgStallCpi(StallCause cause) const;
};

} // namespace aurora::core

#endif // AURORA_CORE_SIMULATOR_HH
