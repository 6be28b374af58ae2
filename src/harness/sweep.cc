#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "analyze/lint_config.hh"
#include "analyze/model.hh"
#include "core/audit.hh"
#include "core/config_io.hh"
#include "journal.hh"
#include "obs/trace.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace aurora::harness
{

namespace
{

/** FNV-1a over a byte string. */
std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64 finalizer — full-avalanche 64-bit mix. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace

std::uint64_t
machineHash(const core::MachineConfig &machine)
{
    // describe() serializes every knob; the name distinguishes models
    // that happen to share a parameterization.
    return fnv1a(machine.name, fnv1a(core::describe(machine)));
}

std::uint64_t
deriveJobSeed(std::uint64_t base_seed, std::uint64_t machine_hash,
              const std::string &profile_name)
{
    std::uint64_t h = mix(base_seed + 0x9e3779b97f4a7c15ull);
    h = mix(h ^ machine_hash);
    h = mix(h ^ fnv1a(profile_name));
    return h ? h : 1;
}

std::uint64_t
jobSeed(const SweepJob &job, const std::optional<std::uint64_t> &base_seed)
{
    return base_seed ? deriveJobSeed(*base_seed, machineHash(job.machine),
                                     job.profile.name)
                     : job.profile.seed;
}

double
SweepReport::instsPerSecond() const
{
    return wall_seconds > 0.0
               ? static_cast<double>(total_instructions) / wall_seconds
               : 0.0;
}

double
SweepReport::speedup() const
{
    return wall_seconds > 0.0 ? busy_seconds / wall_seconds : 0.0;
}

std::string
SweepReport::summary() const
{
    std::ostringstream os;
    os << "sweep summary: " << jobs << " jobs | " << workers
       << " workers | wall " << formatFixed(wall_seconds, 2)
       << " s | busy " << formatFixed(busy_seconds, 2) << " s (speedup "
       << formatFixed(speedup(), 2) << "x) | "
       << formatFixed(instsPerSecond() / 1e6, 2)
       << " M sim-insts/s over " << total_instructions << " insts";
    // Isolation accounting only appears once an outcome run happened,
    // so fail-fast sweeps keep the historical one-line shape.
    if (ok_jobs || failed_jobs || retried_jobs || timed_out_jobs ||
        skipped_jobs || cancelled_jobs) {
        os << " | ok " << ok_jobs << " / failed " << failed_jobs
           << " / retried " << retried_jobs;
        if (timed_out_jobs)
            os << " / timed out " << timed_out_jobs;
        if (skipped_jobs)
            os << " / skipped " << skipped_jobs;
        if (cancelled_jobs)
            os << " / cancelled " << cancelled_jobs;
    }
    if (resumed_jobs)
        os << " | resumed " << resumed_jobs;
    return os.str();
}

std::string
SweepProgress::toString() const
{
    std::ostringstream os;
    os << "sweep progress: " << done << "/" << total << " done | ok "
       << ok << " / failed " << failed << " / timed out " << timed_out
       << " / retried " << retried;
    if (resumed)
        os << " / resumed " << resumed;
    os << " | elapsed " << formatFixed(elapsed_seconds, 2) << " s";
    if (done < total)
        os << " | eta " << formatFixed(eta_seconds, 2) << " s";
    return os.str();
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

unsigned
SweepRunner::workers() const
{
    return options_.workers ? options_.workers : defaultWorkers();
}

unsigned
SweepRunner::retries() const
{
    if (options_.retries)
        return *options_.retries;
    return static_cast<unsigned>(
        envCount("AURORA_SWEEP_RETRIES", 0, /*min=*/0));
}

std::uint64_t
SweepRunner::deadlineMs() const
{
    if (options_.deadline_ms)
        return *options_.deadline_ms;
    return envCount("AURORA_SWEEP_DEADLINE_MS", 0, /*min=*/0);
}

std::uint64_t
SweepRunner::backoffMs() const
{
    if (options_.backoff_ms)
        return *options_.backoff_ms;
    return envCount("AURORA_SWEEP_BACKOFF_MS", 0, /*min=*/0);
}

bool
SweepRunner::preflightEnabled() const
{
    if (options_.preflight)
        return *options_.preflight;
    return envFlag("AURORA_PREFLIGHT", true);
}

bool
SweepRunner::modelAdviceEnabled() const
{
    if (options_.model_advice)
        return *options_.model_advice;
    return envFlag("AURORA_PREFLIGHT_MODEL", false);
}

/**
 * Lint every machine in @p grid before any worker launches. Errors
 * (not warnings) abort the launch: one BadConfig naming every bad
 * job and its diagnostic IDs, truncated past a dozen lines so an
 * 18000-job grid with a systematic defect stays readable.
 */
void
preflightGrid(const std::vector<SweepJob> &grid)
{
    constexpr std::size_t MAX_LINES = 12;
    std::size_t bad_jobs = 0;
    std::string lines;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::vector<analyze::Diagnostic> findings =
            analyze::lintConfig(grid[i].machine);
        if (!analyze::hasErrors(findings))
            continue;
        ++bad_jobs;
        if (bad_jobs > MAX_LINES)
            continue;
        lines += detail::concat("\n  job ", i, " (",
                                grid[i].profile.name, "@",
                                grid[i].machine.name, "):");
        for (const analyze::Diagnostic &d : findings)
            if (d.severity == analyze::Severity::Error)
                lines += detail::concat(" ", d.id);
    }
    if (bad_jobs == 0)
        return;
    if (bad_jobs > MAX_LINES)
        lines += detail::concat("\n  ... and ", bad_jobs - MAX_LINES,
                                " more");
    util::raiseError(
        util::SimErrorCode::BadConfig, "sweep preflight rejected ",
        bad_jobs, " of ", grid.size(),
        " jobs before any worker started (aurora_lint explain <ID> "
        "describes each diagnostic; AURORA_PREFLIGHT=0 disables the "
        "check):", lines);
}

void
adviseGrid(const std::vector<SweepJob> &grid,
           const core::WatchdogConfig &watchdog)
{
    // Pure observation over an already-admitted grid: computes the
    // analytic bound per job and logs it. No exception is ever
    // raised and no job state is touched — the inertness contract
    // the docs promise and test_harness_outcomes enforces.
    constexpr std::size_t MAX_LINES = 32;
    std::size_t over_budget = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const analyze::ModelResult r =
            analyze::predictBound(grid[i].machine, grid[i].profile);
        const bool budgeted =
            watchdog.cycle_budget > 0 && r.ipc_bound > 0.0;
        const double min_cycles =
            budgeted ? double(grid[i].instructions) / r.ipc_bound
                     : 0.0;
        const bool cannot_finish =
            budgeted && min_cycles > double(watchdog.cycle_budget);
        if (cannot_finish)
            ++over_budget;
        if (i >= MAX_LINES)
            continue;
        std::string line = detail::concat(
            "model advice: job ", i, " (", grid[i].profile.name, "@",
            grid[i].machine.name, "): ", r.summary());
        if (cannot_finish)
            line += detail::concat(
                " — needs >= ",
                static_cast<std::uint64_t>(min_cycles),
                " cycles, over the ", watchdog.cycle_budget,
                "-cycle watchdog budget");
        inform(line);
    }
    if (grid.size() > MAX_LINES)
        inform(detail::concat("model advice: ... and ",
                              grid.size() - MAX_LINES, " more jobs"));
    if (over_budget > 0)
        inform(detail::concat(
            "model advice: ", over_budget, " of ", grid.size(),
            " jobs cannot finish within the watchdog cycle budget "
            "even at their analytic IPC bound"));
}

namespace
{

/**
 * Turn a job grid into closures, resolving the seed-derivation and
 * watchdog policy once so run() and runOutcomes() simulate each job
 * identically (healthy results stay bit-comparable between the two).
 * @p deadline_ms fills the watchdog's wall-clock deadline only where
 * an explicit watchdog policy left it unset.
 */
std::vector<std::function<core::RunResult()>>
gridTasks(const std::vector<SweepJob> &grid, const SweepOptions &options,
          std::uint64_t deadline_ms)
{
    core::WatchdogConfig watchdog =
        options.watchdog ? *options.watchdog : core::defaultWatchdog();
    if (watchdog.deadline_ms == 0)
        watchdog.deadline_ms = deadline_ms;
    std::vector<std::function<core::RunResult()>> tasks;
    tasks.reserve(grid.size());
    for (const SweepJob &job : grid) {
        tasks.push_back([&options, &job, watchdog]() {
            trace::WorkloadProfile profile = job.profile;
            profile.seed = jobSeed(job, options.base_seed);
            return core::simulate(job.machine, profile,
                                  job.instructions, watchdog);
        });
    }
    return tasks;
}

/**
 * Deterministic exponential backoff before retry attempt @p attempt
 * (>= 2): base << (attempt - 2) ms, capped at 10 s. Doubling by loop
 * keeps the arithmetic overflow-proof for any attempt count.
 */
std::uint64_t
backoffDelayMs(std::uint64_t base_ms, unsigned attempt)
{
    constexpr std::uint64_t CAP_MS = 10'000;
    std::uint64_t delay = base_ms;
    for (unsigned doublings = attempt - 2;
         doublings > 0 && delay < CAP_MS; --doublings)
        delay *= 2;
    return std::min(delay, CAP_MS);
}

/**
 * Serialized progress accounting for one grid. Heartbeats fire when
 * the done count crosses a multiple of the cadence and once at grid
 * completion — emission points depend only on job counts, so a grid
 * heartbeats identically at any worker count (the *values* of
 * elapsed/eta are wall-clock, the *schedule* is deterministic).
 */
class ProgressMeter
{
  public:
    ProgressMeter(const SweepOptions &options, std::size_t total,
                  std::size_t already_done)
        : total_(total),
          every_(options.progress_every
                     ? options.progress_every
                     : std::max<std::size_t>(1, total / 20)),
          callback_(options.on_progress),
          log_(envFlag("AURORA_PROGRESS", false))
    {
        progress_.total = total;
        progress_.done = already_done;
        progress_.ok = already_done;
        progress_.resumed = already_done;
        executedBase_ = already_done;
    }

    bool enabled() const { return callback_ || log_; }

    /** Record one completed isolated job. */
    void
    onOutcome(const SweepOutcome &out)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++progress_.done;
        if (out.ok)
            ++progress_.ok;
        else if (out.code == util::SimErrorCode::Timeout)
            ++progress_.timed_out;
        else
            ++progress_.failed;
        if (out.attempts > 1)
            ++progress_.retried;
        maybeEmit();
    }

    /** Record one completed fail-fast job (always a result). */
    void
    onResult()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++progress_.done;
        ++progress_.ok;
        maybeEmit();
    }

  private:
    void
    maybeEmit()
    {
        if (progress_.done % every_ != 0 && progress_.done != total_)
            return;
        progress_.elapsed_seconds = timer_.seconds();
        const std::size_t executed = progress_.done - executedBase_;
        const std::size_t remaining = total_ - progress_.done;
        progress_.eta_seconds =
            executed ? progress_.elapsed_seconds /
                           static_cast<double>(executed) *
                           static_cast<double>(remaining)
                     : 0.0;
        if (callback_)
            callback_(progress_);
        if (log_)
            inform(progress_.toString());
    }

    std::mutex mutex_;
    WallTimer timer_;
    SweepProgress progress_;
    std::size_t total_;
    std::size_t every_;
    /** Jobs replayed before execution began (excluded from the ETA
     *  rate so resumed sweeps do not extrapolate from free jobs). */
    std::size_t executedBase_ = 0;
    std::function<void(const SweepProgress &)> callback_;
    bool log_;
};

} // namespace

std::vector<core::RunResult>
SweepRunner::run(const std::vector<SweepJob> &grid)
{
    if (preflightEnabled())
        preflightGrid(grid);
    if (modelAdviceEnabled())
        adviseGrid(grid, options_.watchdog
                             ? *options_.watchdog
                             : core::defaultWatchdog());
    return runTasks(gridTasks(grid, options_, deadlineMs()));
}

std::vector<SweepOutcome>
SweepRunner::runOutcomes(const std::vector<SweepJob> &grid)
{
    if (preflightEnabled())
        preflightGrid(grid);
    if (modelAdviceEnabled())
        adviseGrid(grid, options_.watchdog
                             ? *options_.watchdog
                             : core::defaultWatchdog());
    if (options_.journal.empty()) {
        WallTimer wall;
        std::vector<SweepOutcome> outcomes = executeOutcomes(
            gridTasks(grid, options_, deadlineMs()), {}, grid.size(),
            /*already_done=*/0);
        accountOutcomes(outcomes, wall.seconds());
        return outcomes;
    }

    const std::size_t n = grid.size();
    const std::uint64_t fingerprint =
        gridFingerprint(grid, options_.base_seed);
    std::vector<SweepOutcome> outcomes(n);
    std::vector<char> replayed(n, 0);

    // Resuming against a journal that was never created (e.g. the
    // previous run died before its first flush) degrades to a fresh
    // run — there is nothing to replay, not an error.
    const bool resuming = options_.resume && [&] {
        return std::ifstream(options_.journal).good();
    }();

    std::unique_ptr<JournalWriter> writer;
    if (resuming) {
        LoadedJournal loaded = loadJournal(options_.journal);
        if (loaded.fingerprint != fingerprint || loaded.jobs != n)
            util::raiseError(
                util::SimErrorCode::BadJournal, "journal '",
                options_.journal,
                "' was written by a different grid (fingerprint ",
                loaded.fingerprint, " over ", loaded.jobs,
                " jobs; this launch is ", fingerprint, " over ", n,
                " jobs) — it cannot replay results for this sweep");
        for (JournalRecord &rec : loaded.records) {
            if (!rec.outcome.ok)
                continue; // failed/timed-out jobs get a fresh attempt
            const auto i = static_cast<std::size_t>(rec.job_index);
            outcomes[i] = std::move(rec.outcome);
            outcomes[i].resumed = true;
            replayed[i] = 1;
        }
        // A replayed result is only as trustworthy as its record:
        // re-audit what came off disk just like a fresh run.
        if (core::auditEnabled())
            for (std::size_t i = 0; i < n; ++i)
                if (replayed[i])
                    core::auditRun(outcomes[i].result);
        // Cut a torn tail fragment off before appending: left in
        // place it would sit mid-file and read as Corrupt next time.
        if (loaded.dropped_tail)
            std::filesystem::resize_file(options_.journal,
                                         loaded.valid_bytes);
        writer = std::make_unique<JournalWriter>(options_.journal);
    } else {
        writer = std::make_unique<JournalWriter>(options_.journal,
                                                 fingerprint, n);
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        if (!replayed[i])
            pending.push_back(i);
    if (obs::SpanLog *log = options_.span_log)
        for (std::size_t i = 0; i < n; ++i) {
            if (!replayed[i])
                continue;
            const std::size_t job = options_.span_job_base + i;
            const std::string label =
                grid[i].profile.name + "@" + grid[i].machine.name;
            const double now = log->nowUs();
            log->addAttempt(job, /*attempt=*/0, label, now, now);
            log->addJob(job, label, now, now);
        }
    if (options_.progress && pending.size() < n)
        inform(detail::concat("sweep: resuming '", options_.journal,
                              "': ", n - pending.size(), "/", n,
                              " jobs replayed from the journal"));

    auto all_tasks = gridTasks(grid, options_, deadlineMs());
    std::vector<std::function<core::RunResult()>> tasks;
    tasks.reserve(pending.size());
    for (const std::size_t i : pending)
        tasks.push_back(std::move(all_tasks[i]));

    // Completion counter spans the whole grid (replays included) so
    // on_job_done sees grid-relative progress.
    std::atomic<std::size_t> done{n - pending.size()};
    const auto on_complete = [&](std::size_t k,
                                 const SweepOutcome &out) {
        const std::size_t i = pending[k];
        JournalRecord rec;
        rec.job_index = i;
        rec.machine_hash = machineHash(grid[i].machine);
        rec.seed = jobSeed(grid[i], options_.base_seed);
        rec.outcome = out;
        writer->append(rec);
        const std::size_t d =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options_.on_job_done)
            options_.on_job_done(d, n);
    };

    WallTimer wall;
    std::vector<SweepOutcome> executed = executeOutcomes(
        tasks, on_complete, n, n - pending.size(), &pending);
    for (std::size_t k = 0; k < pending.size(); ++k)
        outcomes[pending[k]] = std::move(executed[k]);

    accountOutcomes(outcomes, wall.seconds());
    return outcomes;
}

std::vector<core::RunResult>
SweepRunner::runTasks(
    const std::vector<std::function<core::RunResult()>> &tasks)
{
    const std::size_t n = tasks.size();
    std::vector<core::RunResult> results(n);
    std::vector<double> job_seconds(n, 0.0);
    std::atomic<std::size_t> completed{0};

    const unsigned pool = workers();
    WallTimer wall;
    ParallelResult accounting;
    ProgressMeter meter(options_, n, /*already_done=*/0);
    try {
        parallelFor(
            n, pool,
            [&](std::size_t i) {
                WallTimer job_timer;
                results[i] = tasks[i]();
                job_seconds[i] = job_timer.seconds();
                if (meter.enabled())
                    meter.onResult();
                const std::size_t done =
                    completed.fetch_add(1, std::memory_order_relaxed) +
                    1;
                if (options_.progress)
                    inform(detail::concat(
                        "sweep: ", done, "/", n, " done (",
                        results[i].benchmark.empty()
                            ? "job"
                            : results[i].benchmark,
                        "@",
                        results[i].model.empty() ? "machine"
                                                 : results[i].model,
                        ", ", formatFixed(job_seconds[i], 3), " s)"));
            },
            &accounting);
    } catch (...) {
        // Fail-fast abort: still balance the books — every queued
        // body that never ran is counted, so
        // jobs == ok + failed + timed_out + skipped holds. The
        // propagating exception classifies as Timeout or failure;
        // any further suppressed failures count as failed.
        bool timed_out = false;
        try {
            throw;
        } catch (const util::SimError &e) {
            timed_out = e.code() == util::SimErrorCode::Timeout;
        } catch (...) {
        }
        report_.workers = static_cast<unsigned>(std::min<std::size_t>(
            pool, std::max<std::size_t>(n, 1)));
        report_.jobs += n;
        report_.wall_seconds += wall.seconds();
        report_.job_seconds = std::move(job_seconds);
        report_.ok_jobs += accounting.ran - accounting.failed;
        report_.skipped_jobs += accounting.skipped;
        if (timed_out && accounting.failed > 0) {
            ++report_.timed_out_jobs;
            report_.failed_jobs += accounting.failed - 1;
        } else {
            report_.failed_jobs += accounting.failed;
        }
        throw;
    }

    report_.workers = static_cast<unsigned>(
        std::min<std::size_t>(pool, std::max<std::size_t>(n, 1)));
    report_.jobs += n;
    report_.wall_seconds += wall.seconds();
    report_.job_seconds = std::move(job_seconds);
    for (std::size_t i = 0; i < n; ++i) {
        report_.busy_seconds += report_.job_seconds[i];
        report_.total_instructions += results[i].instructions;
    }
    return results;
}

std::vector<SweepOutcome>
SweepRunner::runTaskOutcomes(
    const std::vector<std::function<core::RunResult()>> &tasks)
{
    WallTimer wall;
    std::vector<SweepOutcome> outcomes =
        executeOutcomes(tasks, {}, tasks.size(), /*already_done=*/0);
    accountOutcomes(outcomes, wall.seconds());
    return outcomes;
}

std::vector<SweepOutcome>
SweepRunner::executeOutcomes(
    const std::vector<std::function<core::RunResult()>> &tasks,
    const std::function<void(std::size_t, const SweepOutcome &)>
        &on_complete,
    std::size_t grid_total, std::size_t already_done,
    const std::vector<std::size_t> *grid_indices)
{
    const std::size_t n = tasks.size();
    std::vector<SweepOutcome> outcomes(n);
    std::atomic<std::size_t> completed{0};

    const unsigned pool = workers();
    const unsigned max_attempts = retries() + 1;
    const std::uint64_t backoff = backoffMs();
    obs::SpanLog *span_log = options_.span_log;
    ProgressMeter meter(options_, grid_total, already_done);
    // The body never throws: every failure is captured into its
    // outcome slot, so one poisoned job cannot abort the grid and
    // parallelFor's fail-fast path stays untouched.
    const std::atomic<bool> *cancel = options_.cancel;
    parallelFor(n, pool, [&](std::size_t i) {
        SweepOutcome &out = outcomes[i];
        const std::size_t job =
            options_.span_job_base +
            (grid_indices ? (*grid_indices)[i] : i);
        const double job_start = span_log ? span_log->nowUs() : 0.0;
        std::string label;
        WallTimer job_timer;
        for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
            // Cooperative cancellation: refuse to *start* an attempt
            // once the flag is up; an attempt already simulating is
            // left to finish (and journal) normally.
            if (cancel && cancel->load(std::memory_order_relaxed)) {
                out.ok = false;
                out.code = util::SimErrorCode::Cancelled;
                out.error = attempt == 1
                                ? "cancelled before execution"
                                : "cancelled before retry";
                out.attempts = attempt - 1;
                break;
            }
            if (attempt > 1 && backoff)
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    backoffDelayMs(backoff, attempt)));
            out.attempts = attempt;
            const double span_start = span_log ? span_log->nowUs() : 0.0;
            try {
                out.result = tasks[i]();
                out.ok = true;
                out.error.clear();
            } catch (const util::SimError &e) {
                out.ok = false;
                out.code = e.code();
                out.error = e.what();
            } catch (const std::exception &e) {
                out.ok = false;
                out.code = util::SimErrorCode::Internal;
                out.error = e.what();
            } catch (...) {
                out.ok = false;
                out.code = util::SimErrorCode::Internal;
                out.error = "unknown exception";
            }
            if (span_log) {
                label = out.ok && !out.result.benchmark.empty()
                            ? out.result.benchmark + "@" +
                                  out.result.model
                            : "job " + std::to_string(job);
                span_log->addAttempt(job, attempt, label, span_start,
                                     span_log->nowUs(),
                                     out.ok ? std::string() : out.error);
            }
            if (out.ok)
                break;
            // A deadline expiry is deterministic for a hung
            // simulation: retrying would only re-spend the whole
            // deadline. Fail the job now.
            if (out.code == util::SimErrorCode::Timeout)
                break;
        }
        out.seconds = job_timer.seconds();
        if (span_log && out.attempts > 0)
            span_log->addJob(job, label, job_start, span_log->nowUs());
        if (on_complete)
            on_complete(i, out);
        if (meter.enabled())
            meter.onOutcome(out);
        const std::size_t done =
            completed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options_.progress) {
            if (out.ok)
                inform(detail::concat(
                    "sweep: ", done, "/", n, " ok (",
                    out.result.benchmark.empty() ? "job"
                                                 : out.result.benchmark,
                    "@",
                    out.result.model.empty() ? "machine"
                                             : out.result.model,
                    ", ", out.attempts, " attempt(s), ",
                    formatFixed(out.seconds, 3), " s)"));
            else if (out.code == util::SimErrorCode::Timeout)
                inform(detail::concat(
                    "sweep: ", done, "/", n, " TIMED OUT after ",
                    formatFixed(out.seconds, 3), " s: ", out.error));
            else
                inform(detail::concat(
                    "sweep: ", done, "/", n, " FAILED after ",
                    out.attempts, " attempt(s): ", out.error));
        }
    });
    return outcomes;
}

void
SweepRunner::accountOutcomes(const std::vector<SweepOutcome> &outcomes,
                             double wall_seconds)
{
    const std::size_t n = outcomes.size();
    report_.workers = static_cast<unsigned>(std::min<std::size_t>(
        workers(), std::max<std::size_t>(n, 1)));
    report_.jobs += n;
    report_.wall_seconds += wall_seconds;
    report_.job_seconds.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const SweepOutcome &out = outcomes[i];
        report_.job_seconds[i] = out.seconds;
        if (out.resumed) {
            // Replayed, not executed: counts toward ok/resumed but
            // is excluded from throughput (busy time, instructions)
            // so resumed sweeps report honest execution rates.
            ++report_.ok_jobs;
            ++report_.resumed_jobs;
            continue;
        }
        report_.busy_seconds += out.seconds;
        if (out.ok) {
            ++report_.ok_jobs;
            report_.total_instructions += out.result.instructions;
        } else if (out.code == util::SimErrorCode::Timeout) {
            ++report_.timed_out_jobs;
        } else if (out.code == util::SimErrorCode::Cancelled) {
            ++report_.cancelled_jobs;
        } else {
            ++report_.failed_jobs;
        }
        if (out.attempts > 1)
            ++report_.retried_jobs;
    }
}

std::vector<SweepJob>
suiteJobs(const core::MachineConfig &machine,
          const std::vector<trace::WorkloadProfile> &suite,
          Count instructions)
{
    std::vector<SweepJob> grid;
    grid.reserve(suite.size());
    for (const trace::WorkloadProfile &profile : suite)
        grid.push_back({machine, profile, instructions});
    return grid;
}

core::SuiteResult
runSuite(SweepRunner &runner, const core::MachineConfig &machine,
         const std::vector<trace::WorkloadProfile> &suite,
         Count instructions)
{
    core::SuiteResult result;
    result.machine = machine;
    result.runs = runner.run(suiteJobs(machine, suite, instructions));
    return result;
}

} // namespace aurora::harness
