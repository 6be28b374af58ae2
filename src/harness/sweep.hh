/**
 * @file
 * Parallel design-space sweep engine with deterministic replay.
 *
 * The study's evaluation is a large cross product — machine models ×
 * issue widths × memory latencies × the SPEC92 suite, plus FPU
 * queue/latency grids. Every (machine, workload) run is independent:
 * a Processor owns its whole machine state and the synthetic workload
 * generator owns its private Rng, so the sweep is embarrassingly
 * parallel. SweepRunner executes a job grid across a fixed pool of
 * worker threads (count from AURORA_JOBS or hardware_concurrency) and
 * returns results in submission order regardless of completion order.
 *
 * Determinism guarantee: a job's result depends only on the job
 * itself, never on scheduling. When SweepOptions::base_seed is set,
 * each job's workload seed is rederived as
 *
 *     deriveJobSeed(base_seed, machineHash(machine), profile.name)
 *
 * so a grid replays bit-identically at any worker count — and any two
 * sweeps sharing a base seed agree job-for-job. Without a base seed
 * the profiles' own seeds are kept, which keeps traces identical
 * across machine variants (paired comparisons, the paper's
 * methodology). run() and runOutcomes() then run the jobs that replay
 * one trace as lockstep units over a single synthesized stream
 * (core::simulateShared; docs/harness.md, "Shared-trace lockstep").
 *
 * Fault isolation: every entry point runs through one executor that
 * captures each job's error into a SweepOutcome. runOutcomes()/
 * runTaskOutcomes() optionally retry a failed job with the same
 * derived seed and always run the full grid — one poisoned
 * configuration cannot take down an overnight sweep (see
 * docs/robustness.md). run()/runTasks() are fail-fast: the first
 * failure stops the grid and its exception propagates.
 */

#ifndef AURORA_HARNESS_SWEEP_HH
#define AURORA_HARNESS_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "core/simulator.hh"
#include "core/watchdog.hh"
#include "trace/workload_profile.hh"
#include "util/sim_error.hh"
#include "util/stats.hh"

namespace aurora::obs
{
class SpanLog;
}

namespace aurora::harness
{

/**
 * One heartbeat of a sweep in flight, delivered through
 * SweepOptions::on_progress (and logged when AURORA_PROGRESS=1).
 * Counts cover the whole grid, replayed jobs included; ETA is a
 * straight-line extrapolation from the executed jobs' elapsed time.
 */
struct SweepProgress
{
    std::size_t done = 0;
    std::size_t total = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timed_out = 0;
    std::size_t retried = 0;
    std::size_t resumed = 0;
    double elapsed_seconds = 0.0;
    /** 0 until at least one job has executed (or when done). */
    double eta_seconds = 0.0;

    /** One-line human-readable rendering. */
    std::string toString() const;
};

/** One (machine, workload, budget) point of a sweep grid. */
struct SweepJob
{
    core::MachineConfig machine;
    trace::WorkloadProfile profile;
    Count instructions = core::DEFAULT_RUN_INSTS;
};

/** Execution policy for a SweepRunner. */
struct SweepOptions
{
    /**
     * Worker threads. 0 = AURORA_JOBS environment variable when set,
     * otherwise hardware_concurrency(); 1 = serial in the calling
     * thread (no pool at all).
     */
    unsigned workers = 0;

    /**
     * When set, rederive every job's workload seed from
     * (base_seed, machineHash(machine), profile.name). Unset keeps
     * each profile's own seed.
     */
    std::optional<std::uint64_t> base_seed;

    /**
     * Retry budget per job for the outcome-isolating entry points
     * (runOutcomes / runTaskOutcomes): a failing job is re-attempted
     * up to this many extra times with the same derived seed. Unset
     * reads AURORA_SWEEP_RETRIES (default 0 — no retries). The
     * fail-fast run()/runTasks() paths never retry.
     */
    std::optional<unsigned> retries;

    /**
     * Watchdog policy applied to every simulation job launched by
     * run()/runOutcomes(). Unset uses core::defaultWatchdog() (the
     * AURORA_WATCHDOG_CYCLES stall limit, no cycle budget). Kept out
     * of MachineConfig deliberately: execution policy must not
     * perturb machineHash() and hence derived seeds.
     */
    std::optional<core::WatchdogConfig> watchdog;

    /**
     * Per-job wall-clock deadline in milliseconds, applied on top of
     * the watchdog (only where the watchdog leaves deadline_ms
     * unset). A job past its deadline raises a Timeout outcome
     * without blocking the rest of the grid; Timeout jobs are never
     * retried — a deterministic simulation that hung once will hang
     * again, and retrying would double the worst-case wall time.
     * Unset reads AURORA_SWEEP_DEADLINE_MS (default 0 = unlimited).
     */
    std::optional<std::uint64_t> deadline_ms;

    /**
     * Base delay in milliseconds for the deterministic exponential
     * backoff between retry attempts of one job: attempt k (k >= 2)
     * waits base << (k - 2) ms first, capped at 10 s. Unset reads
     * AURORA_SWEEP_BACKOFF_MS (default 0 = retry immediately).
     */
    std::optional<std::uint64_t> backoff_ms;

    /**
     * Crash-safe journal file for runOutcomes(): every completed
     * job's outcome is appended (and flushed) as it finishes, so a
     * killed sweep can be resumed. Empty = no journal.
     */
    std::string journal;

    /**
     * Resume from an existing journal instead of starting fresh:
     * jobs with a journaled ok outcome replay those results
     * bit-identically (marked SweepOutcome::resumed) and only
     * missing/failed jobs execute. The journal's grid fingerprint
     * must match the grid being launched (else BadJournal).
     */
    bool resume = false;

    /**
     * Statically lint every grid job's machine (analyze::lintConfig)
     * before any worker launches; lint *errors* — including the
     * structural-deadlock check that validate() cannot express — fail
     * the whole launch with BadConfig listing job, machine, and
     * diagnostic IDs. Catching a wedged configuration here costs
     * microseconds; catching it in a worker costs the full watchdog
     * budget. Unset reads AURORA_PREFLIGHT (default on). Applies to
     * run()/runOutcomes(); the task-based entry points carry no
     * configs to inspect. Warnings never block a launch.
     */
    std::optional<bool> preflight;

    /**
     * Opt-in preflight advisor: after the lint preflight admits the
     * grid, run the analytic bottleneck model (analyze::predictBound)
     * over every job and log each predicted IPC bound, binding
     * resource, and — when the effective watchdog carries a cycle
     * budget — whether the job can even finish inside it (a job
     * needs at least instructions/bound cycles; docs/model.md).
     * Log-only and provably inert: admission, seeds, scheduling, and
     * results are bit-identical with the advisor on or off
     * (test_harness_outcomes holds this). Unset reads
     * AURORA_PREFLIGHT_MODEL (default off — a 10k-point grid does
     * not want 10k log lines unasked).
     */
    std::optional<bool> model_advice;

    /**
     * Progress heartbeat: invoked (from worker threads, serialized)
     * every progress_every completed jobs and at grid completion,
     * with grid-wide counts, elapsed wall time, and an ETA. A
     * journaled job's heartbeat follows its journal append. The
     * emission points depend only on job counts, so a given grid
     * heartbeats at the same `done` values at any worker count.
     * AURORA_PROGRESS=1 additionally logs each heartbeat through
     * util::inform() even when no callback is installed.
     */
    std::function<void(const SweepProgress &)> on_progress;

    /**
     * Heartbeat cadence in completed jobs. 0 = automatic:
     * max(1, total/20), i.e. roughly every 5% of the grid.
     */
    std::size_t progress_every = 0;

    /**
     * When set, every job attempt is recorded as an `attempt` span
     * (a journal replay as an instant) and every job as a `job` span
     * covering its attempts, under the log's TraceContext. The log
     * must outlive the run. Pure observation: results, seeds, and
     * scheduling are unchanged.
     */
    obs::SpanLog *span_log = nullptr;

    /**
     * Offset added to every span's job index. The service and shard
     * paths run one-job sub-grids into a grid-wide span log; the base
     * maps the sub-grid's job 0 back to its true grid index so its
     * spans carry the right job ids. Ignored without a span log.
     */
    std::size_t span_job_base = 0;

    /**
     * Cooperative cancellation for the outcome entry points (the
     * fail-fast ones stop on their first failure instead): checked
     * before every job attempt. Once the flag reads true, jobs not
     * yet started (and pending retries) complete immediately as
     * Cancelled outcomes without executing; attempts already inside
     * core::simulate() run to completion — a finished, journaled
     * result is always preferable to a half-abandoned one. The flag
     * must outlive the run. aurora_serve sets it when a tenant
     * cancels a grid or disconnects with the cancel policy.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * Result-or-error of one isolated sweep job. Exactly one of
 * (ok && result valid) / (!ok && code+error describe the failure)
 * holds; timing and attempt accounting are always valid.
 */
struct SweepOutcome
{
    /** Valid only when ok. */
    core::RunResult result{};
    /** Whether the job (eventually) produced a result. */
    bool ok = false;
    /** Failure class of the final attempt; meaningful when !ok. */
    util::SimErrorCode code = util::SimErrorCode::Internal;
    /** what() of the final attempt's exception; empty when ok. */
    std::string error;
    /** Attempts consumed (1 = succeeded or failed first try; 0 =
     *  cancelled before any attempt started). */
    unsigned attempts = 1;
    /**
     * Host seconds across all attempts of this job. An attempt in a
     * lockstep unit counts the job's own stepping plus an equal share
     * of the unit's trace synthesis; a retry counts its wall time.
     */
    double seconds = 0.0;
    /**
     * Result was replayed from a journal rather than executed
     * (resume runs only; seconds then reports the journaled time).
     */
    bool resumed = false;
};

/** Aggregate timing over every grid a runner has executed. */
struct SweepReport
{
    /** Worker threads used by the most recent run. */
    unsigned workers = 0;
    /** Jobs executed (cumulative across run() calls). */
    std::size_t jobs = 0;
    /** Wall-clock seconds (cumulative). */
    double wall_seconds = 0.0;
    /** Sum of per-job seconds — the serial-equivalent time. */
    double busy_seconds = 0.0;
    /** Simulated instructions over all jobs. */
    Count total_instructions = 0;
    /**
     * Trace instructions synthesized for them. Grid jobs that replay
     * one trace run as a lockstep unit over a single synthesis, so
     * this falls below total_instructions by the sharing factor (0
     * for closure tasks, whose traces the runner cannot see).
     */
    Count synthesized_instructions = 0;
    /** Per-job wall seconds of the most recent run, by grid index. */
    std::vector<double> job_seconds;
    /** Jobs that produced a result. */
    std::size_t ok_jobs = 0;
    /** Jobs that failed every attempt. */
    std::size_t failed_jobs = 0;
    /** Jobs that needed more than one attempt. */
    std::size_t retried_jobs = 0;
    /** Jobs whose wall-clock deadline expired (subset of
     *  neither ok nor failed: jobs == ok + failed + timed_out +
     *  skipped always balances). */
    std::size_t timed_out_jobs = 0;
    /** Jobs replayed from a journal (subset of ok_jobs). */
    std::size_t resumed_jobs = 0;
    /** Jobs never attempted: units not yet started when a fail-fast
     *  run stopped on its first failure. */
    std::size_t skipped_jobs = 0;
    /** Jobs cancelled through SweepOptions::cancel before executing
     *  (subset of neither ok nor failed; the balance becomes
     *  jobs == ok + failed + timed_out + skipped + cancelled). */
    std::size_t cancelled_jobs = 0;

    /** Aggregate simulated instructions per wall-clock second. */
    double instsPerSecond() const;
    /** busy/wall — effective parallel speedup over a serial sweep. */
    double speedup() const;
    /** One-line human-readable summary for bench footers. */
    std::string summary() const;
};

/**
 * Fixed-pool sweep executor. A runner may execute any number of
 * grids; its report accumulates across them so a bench composed of
 * many small sweeps still gets one overall summary.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /**
     * Execute every job in @p grid and return the results in
     * submission order. Fail-fast: each job gets one attempt, and the
     * first failure stops the grid — units already running finish,
     * later ones are skipped — then its exception propagates to the
     * caller after all workers have been joined.
     */
    std::vector<core::RunResult> run(const std::vector<SweepJob> &grid);

    /**
     * Execute arbitrary result-producing tasks through the same pool,
     * timing, and report accounting (exception-propagation and custom
     * workload tests use this).
     */
    std::vector<core::RunResult>
    runTasks(const std::vector<std::function<core::RunResult()>> &tasks);

    /**
     * Fault-isolating variant of run(): every job executes inside a
     * try/catch, a failing job is retried up to retries() extra times
     * with the same derived seed, and the grid always runs to
     * completion. Healthy jobs return results bit-identical to run()'s
     * at any worker count; failed jobs carry the error class and
     * message instead of aborting the sweep.
     *
     * When SweepOptions::journal names a file, every completed job is
     * appended to it (flushed, CRC-framed) as it finishes; with
     * SweepOptions::resume also set and the file present, journaled
     * ok results replay bit-identically (SweepOutcome::resumed) and
     * only missing or previously-failed jobs execute.
     */
    std::vector<SweepOutcome>
    runOutcomes(const std::vector<SweepJob> &grid);

    /** Fault-isolating variant of runTasks(). */
    std::vector<SweepOutcome> runTaskOutcomes(
        const std::vector<std::function<core::RunResult()>> &tasks);

    /** Timing/throughput accounting (cumulative across runs). */
    const SweepReport &report() const { return report_; }

    /** Resolved worker count a run() will use for a large grid. */
    unsigned workers() const;

    /** Resolved retry budget runOutcomes() grants each job. */
    unsigned retries() const;

    /** Resolved per-job wall-clock deadline (ms; 0 = unlimited). */
    std::uint64_t deadlineMs() const;

    /** Resolved retry-backoff base delay (ms; 0 = immediate). */
    std::uint64_t backoffMs() const;

    /** Resolved preflight policy (options override, else env). */
    bool preflightEnabled() const;

    /** Resolved model-advisor policy (options override, else env). */
    bool modelAdviceEnabled() const;

    /** Job indices that run together in one first attempt. */
    using Unit = std::vector<std::size_t>;

    /**
     * Run the jobs @p members in one attempt: one result or error
     * per member, in order, plus the instructions synthesized.
     */
    using UnitAttempt =
        std::function<core::SharedRun(std::span<const std::size_t>)>;

  private:
    /**
     * The one executor behind every entry point: runs each unit
     * through the pool with per-job isolation, then retries each
     * failed member alone with deterministic backoff, except Timeouts,
     * and folds the grid into report_. Writes the outcome of every job
     * in @p units to its slot of @p outcomes; jobs outside @p units
     * (journal replays) count as already done for the heartbeat.
     * @p on_complete (when set) observes each finished outcome from
     * its worker thread — the journal write-through hook.
     *
     * Fail-fast when @p first_error is set: one attempt per job, and
     * the first member failure stores its exception there and stops
     * the grid in place of SweepOptions::cancel; units not yet
     * started are skipped.
     */
    void executeOutcomes(
        std::vector<SweepOutcome> &outcomes, const std::vector<Unit> &units,
        const UnitAttempt &attempt,
        const std::function<void(std::size_t, const SweepOutcome &)>
            &on_complete,
        std::exception_ptr *first_error = nullptr);

    /** executeOutcomes() fail-fast over jobs 0..n-1: the results, or
     *  the first failure's exception. */
    std::vector<core::RunResult> runFailFast(std::size_t n,
                                             const std::vector<Unit> &units,
                                             const UnitAttempt &attempt);

    /** Fold a grid-ordered outcome vector into report_; a job that
     *  never started counts as skipped when @p fail_fast, else as
     *  cancelled. */
    void accountOutcomes(const std::vector<SweepOutcome> &outcomes,
                         double wall_seconds, Count synthesized,
                         bool fail_fast);

    SweepOptions options_;
    SweepReport report_;
};

/**
 * Stable 64-bit digest of every configuration knob (FNV-1a over the
 * config_io serialization plus the model name). Two configs hash
 * equal iff they describe the same machine.
 */
std::uint64_t machineHash(const core::MachineConfig &machine);

/**
 * Per-job seed: splitmix64-style mix of the sweep's base seed, the
 * machine digest, and the profile name. Never returns 0.
 */
std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                            std::uint64_t machine_hash,
                            const std::string &profile_name);

/**
 * The workload seed @p job runs with — and the one its journal
 * record holds: deriveJobSeed(...) under a base seed, else the
 * profile's own seed. Every executor applies this one rule.
 */
std::uint64_t jobSeed(const SweepJob &job,
                      const std::optional<std::uint64_t> &base_seed);

/**
 * Lint every machine in @p grid (analyze::lintConfig); lint *errors*
 * raise one BadConfig naming every bad job and its diagnostic IDs.
 * The preflight gate SweepRunner applies before launching workers,
 * exported so other grid admitters (aurora_serve, aurora_swarm)
 * reject with identical semantics.
 */
void preflightGrid(const std::vector<SweepJob> &grid);

/**
 * Log the analytic model's advice for @p grid under @p watchdog (see
 * SweepOptions::model_advice). Pure observation — reads the grid,
 * writes the log, touches nothing else. Capped at 32 job lines plus
 * a summary so huge grids stay readable.
 */
void adviseGrid(const std::vector<SweepJob> &grid,
                const core::WatchdogConfig &watchdog);

/** Build the (machine × suite) row of a grid. */
std::vector<SweepJob>
suiteJobs(const core::MachineConfig &machine,
          const std::vector<trace::WorkloadProfile> &suite,
          Count instructions = core::DEFAULT_RUN_INSTS);

} // namespace aurora::harness

#endif // AURORA_HARNESS_SWEEP_HH
