/**
 * @file
 * High-level simulation facade — the library's main entry point.
 *
 * Wraps workload construction, trace limiting, processor
 * instantiation, and suite-level aggregation so an experiment is one
 * call: simulate(machine, benchmark, instructions). Machines that
 * replay the same trace (the paper's paired method) run together as
 * a LockstepUnit, which synthesizes that trace once; simulateShared()
 * runs one to its end.
 */

#ifndef AURORA_CORE_SIMULATOR_HH
#define AURORA_CORE_SIMULATOR_HH

#include <exception>
#include <memory>
#include <span>
#include <utility>
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
 *        default is defaultWatchdog(). A run that trips it throws
 *        WatchdogError; an invalid @p machine throws util::SimError
 *        (BadConfig).
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
     * finish, plus a share of the trace synthesis it read (each
     * round's refill split among the machines live in it), so the
     * members' seconds sum to the group's host time.
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
 * Machines that replay one trace, run in lockstep round by round.
 * Each round synthesizes the trace in blocks into a fixed window of
 * recent instructions, up to one window past the slowest machine,
 * then advances every live machine until it finishes or would read
 * past the window (Processor::advance). Every machine sees exactly
 * the stream a simulate() of its own would, so results are
 * bit-identical to that.
 *
 * Between rounds a unit can split(): the back half of its live
 * machines moves, Processors and read positions included, into a new
 * unit whose window is a copy of this one (generator state, ring and
 * fill count). The moved machines read on from where they were, so
 * nothing is synthesized again from the start, and two threads can
 * run the halves. The ring both halves read before the split is
 * frozen: neither window writes it again, and it is freed once every
 * machine has read past it.
 *
 * Failures are isolated: a machine that throws (invalid config,
 * watchdog trip, deadline) ends with its error set and the rest run
 * on. Each machine's wall-clock deadline counts only its own stepping
 * time. A failure of the trace itself (out of memory) fails every
 * machine still running. One thread at a time may use a unit.
 */
class LockstepUnit
{
  public:
    /**
     * Build one Processor per machine over the first window of
     * @p profile's trace of @p instructions. Only a failure to build
     * the workload itself propagates.
     *
     * @param observers empty, or one observer (or nullptr) per machine.
     */
    LockstepUnit(std::span<const MachineConfig> machines,
                 const trace::WorkloadProfile &profile,
                 Count instructions,
                 const WatchdogConfig &watchdog = defaultWatchdog(),
                 std::span<PipelineObserver *const> observers = {});
    ~LockstepUnit();
    LockstepUnit(const LockstepUnit &) = delete;
    LockstepUnit &operator=(const LockstepUnit &) = delete;

    /** Run one round. @return whether a machine is still live. */
    bool step();

    /** Machines still running. */
    std::size_t live() const { return live_; }

    /** Trace instructions the live machines have yet to read. */
    Count remaining() const;

    /**
     * Move the back live()/2 live machines into a new unit, between
     * rounds. Needs live() >= 2.
     */
    std::unique_ptr<LockstepUnit> split();

    /** Trace instructions this unit synthesized (a split-off unit
     *  counts from its split). */
    Count synthesized() const;

    /**
     * Each member's run, with the member's position in the machine
     * list of the unit it was built in. Call once, after step()
     * returned false.
     */
    std::vector<std::pair<std::size_t, SharedMachineRun>> take();

    /** Rings frozen by a split and still held by some machine's view,
     *  process-wide. */
    static std::size_t frozenRings();

  private:
    class Window;
    class Cursor;
    struct Member;

    /** A unit over a copy of @p window with no members yet. */
    explicit LockstepUnit(const Window &window);

    /** Add @p seconds of shared work to the live members, split evenly. */
    void share(double seconds);
    /** Record @p member's end (its error, or null) and release it. */
    void retire(Member &member, std::exception_ptr error);

    std::unique_ptr<Window> window_;
    std::vector<std::unique_ptr<Member>> members_;
    std::size_t live_ = 0;
    /** Window fill when this unit was created. */
    Count start_ = 0;
};

/**
 * Run @p profile for @p instructions on every machine of @p machines
 * as one LockstepUnit, to its end, over one synthesized trace.
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
