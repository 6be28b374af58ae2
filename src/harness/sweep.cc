#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "analyze/lint_config.hh"
#include "analyze/model.hh"
#include "core/config_io.hh"
#include "journal.hh"
#include "obs/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace aurora::harness
{

std::uint64_t
machineHash(const core::MachineConfig &machine)
{
    // describe() serializes every knob; the name distinguishes models
    // that happen to share a parameterization.
    return util::fnv1a64(machine.name,
                         util::fnv1a64(core::describe(machine)));
}

std::uint64_t
deriveJobSeed(std::uint64_t base_seed, std::uint64_t machine_hash,
              const std::string &profile_name)
{
    std::uint64_t h = util::mix64(base_seed + 0x9e3779b97f4a7c15ull);
    h = util::mix64(h ^ machine_hash);
    h = util::mix64(h ^ util::fnv1a64(profile_name));
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
    if (synthesized_instructions)
        os << " (" << synthesized_instructions << " synthesized)";
    // Isolation accounting only appears once some job did not simply
    // succeed, so a clean sweep keeps the one-line shape.
    if (failed_jobs || retried_jobs || timed_out_jobs || skipped_jobs ||
        cancelled_jobs) {
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
        "describes each diagnostic):", lines);
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

using Unit = SweepRunner::Unit;
using UnitAttempt = SweepRunner::UnitAttempt;
using UnitStart = SweepRunner::UnitStart;

/** What grid jobs @p members replay, and on which machines. */
struct UnitInputs
{
    trace::WorkloadProfile profile;
    std::vector<core::MachineConfig> machines;
    Count instructions;
};

/**
 * Resolve a unit of grid jobs (a group from planUnits, or one job
 * retried alone): its members replay one trace. Seed derivation
 * resolves once here, so run() and runOutcomes() simulate each job
 * identically (healthy results stay bit-comparable between the two).
 */
UnitInputs
unitInputs(const std::vector<SweepJob> &grid,
           std::span<const std::size_t> members,
           const std::optional<std::uint64_t> &base_seed)
{
    const SweepJob &lead = grid[members.front()];
    UnitInputs in{lead.profile, {}, lead.instructions};
    in.profile.seed = jobSeed(lead, base_seed);
    in.machines.reserve(members.size());
    for (const std::size_t i : members)
        in.machines.push_back(grid[i].machine);
    return in;
}

/**
 * The watchdog grid jobs run under: SweepOptions::deadline_ms fills
 * its wall-clock deadline only where the policy left it unset.
 */
core::WatchdogConfig
gridWatchdog(const SweepOptions &options)
{
    core::WatchdogConfig watchdog = options.watchdog;
    if (watchdog.deadline_ms == 0)
        watchdog.deadline_ms = options.deadline_ms;
    return watchdog;
}

/** A first attempt of grid jobs: one lockstep unit the pool steps. */
UnitStart
gridStart(const std::vector<SweepJob> &grid, const SweepOptions &options)
{
    return [&grid, &options, watchdog = gridWatchdog(options)](
               std::span<const std::size_t> members) {
        const UnitInputs in = unitInputs(grid, members, options.base_seed);
        return std::make_unique<core::LockstepUnit>(
            in.machines, in.profile, in.instructions, watchdog);
    };
}

/** A whole attempt of grid jobs (a retry): core::simulateShared(). */
UnitAttempt
gridAttempt(const std::vector<SweepJob> &grid, const SweepOptions &options)
{
    return [&grid, &options, watchdog = gridWatchdog(options)](
               std::span<const std::size_t> members) {
        const UnitInputs in = unitInputs(grid, members, options.base_seed);
        try {
            return core::simulateShared(in.machines, in.profile,
                                        in.instructions, watchdog);
        } catch (...) {
            // The shared trace itself failed: so did every member.
            core::SharedRun run;
            run.machines.resize(members.size());
            for (core::SharedMachineRun &m : run.machines)
                m.error = std::current_exception();
            return run;
        }
    };
}

/** The attempt that runs closure tasks, each alone and timed. */
UnitAttempt
taskAttempt(const std::vector<std::function<core::RunResult()>> &tasks)
{
    return [&tasks](std::span<const std::size_t> members) {
        core::SharedRun run;
        for (const std::size_t i : members) {
            core::SharedMachineRun &m = run.machines.emplace_back();
            const WallTimer timer;
            try {
                m.result = tasks[i]();
            } catch (...) {
                m.error = std::current_exception();
            }
            m.seconds = timer.seconds();
        }
        return run;
    };
}

/** Units of one: jobs 0..n-1, each on its own. */
std::vector<Unit>
singletons(std::size_t n)
{
    std::vector<Unit> units(n);
    for (std::size_t i = 0; i < n; ++i)
        units[i] = {i};
    return units;
}

/** Classify one member's attempt into @p out (result or error). */
void
recordAttempt(SweepOutcome &out, core::SharedMachineRun &run)
{
    if (!run.error) {
        out.result = std::move(run.result);
        out.ok = true;
        out.error.clear();
        return;
    }
    out.ok = false;
    try {
        std::rethrow_exception(run.error);
    } catch (const util::SimError &e) {
        out.code = e.code();
        out.error = e.what();
    } catch (const std::exception &e) {
        out.code = util::SimErrorCode::Internal;
        out.error = e.what();
    } catch (...) {
        out.code = util::SimErrorCode::Internal;
        out.error = "unknown exception";
    }
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
          callback_(options.on_progress)
    {
        progress_.total = total;
        progress_.done = already_done;
        progress_.ok = already_done;
        progress_.resumed = already_done;
        executedBase_ = already_done;
    }

    bool enabled() const { return static_cast<bool>(callback_); }

    /** Record one completed job. */
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
        callback_(progress_);
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
};

/**
 * Hands out a grid's units, then lockstep machines, to idle workers.
 * A worker first takes the next unstarted unit. Once none is left it
 * asks the running piece with the most machine-instructions left, and
 * at least two live machines, to split at its next round boundary, and
 * runs the half it gets. A worker leaves once nothing is left to start
 * and nothing can be split.
 */
class StealPool
{
  public:
    /** A part of one unit's first attempt, run on one worker. */
    struct Piece
    {
        std::size_t unit = 0;
        /** When the unit's first attempt began (span clock). */
        double start_us = 0.0;
        /** Null for a unit not yet started. */
        std::unique_ptr<core::LockstepUnit> lockstep;
    };

    /** A thief's ask: answered with a piece, or with nothing. */
    struct Ask
    {
        std::optional<Piece> piece;
        bool answered = false;
    };

    /**
     * A lockstep piece while its worker steps it, stealable from
     * construction to destruction. The worker calls poll() before
     * every round; a destroyed piece answers a late ask with nothing.
     */
    class Running
    {
      public:
        /** @p fresh: @p piece runs a unit next() handed out. */
        Running(StealPool &pool, const Piece &piece, bool fresh)
            : pool_(pool), piece_(piece)
        {
            publish();
            const std::lock_guard lock(pool_.mutex_);
            pool_.running_.push_back(this);
            pool_.starting_ -= fresh ? 1 : 0;
            pool_.changed_.notify_all();
        }

        ~Running()
        {
            const std::lock_guard lock(pool_.mutex_);
            if (ask_)
                reply(std::nullopt);
            std::erase(pool_.running_, this);
            pool_.changed_.notify_all();
        }

        Running(const Running &) = delete;
        Running &operator=(const Running &) = delete;

        /** Between rounds: publish the counts and answer an ask,
         *  splitting if two machines are live. */
        void
        poll()
        {
            publish();
            if (!asked_.load(std::memory_order_relaxed))
                return;
            const std::lock_guard lock(pool_.mutex_);
            std::optional<Piece> half;
            if (piece_.lockstep->live() >= 2) {
                half = Piece{piece_.unit, piece_.start_us,
                             piece_.lockstep->split()};
                ++pool_.splits_;
                publish();
            }
            reply(std::move(half));
        }

      private:
        friend class StealPool;

        void
        publish()
        {
            live_.store(piece_.lockstep->live(), std::memory_order_relaxed);
            remaining_.store(piece_.lockstep->remaining(),
                             std::memory_order_relaxed);
        }

        /** Under the pool mutex. */
        void
        reply(std::optional<Piece> half)
        {
            ask_->piece = std::move(half);
            ask_->answered = true;
            ask_ = nullptr;
            asked_.store(false, std::memory_order_relaxed);
            pool_.changed_.notify_all();
        }

        StealPool &pool_;
        const Piece &piece_;
        std::atomic<std::size_t> live_{0};
        std::atomic<Count> remaining_{0};
        /** A thief's pending ask (under the pool mutex). */
        Ask *ask_ = nullptr;
        /** Set with ask_, read lock-free between rounds. */
        std::atomic<bool> asked_{false};
    };

    explicit StealPool(std::size_t units) : units_(units) {}

    /**
     * Block until there is work: an unstarted unit, or a split-off
     * piece. Empty once nothing is left (or after stop()).
     */
    std::optional<Piece>
    next()
    {
        std::unique_lock lock(mutex_);
        for (;;) {
            if (stopped_)
                return std::nullopt;
            if (next_unit_ < units_) {
                ++starting_;
                return Piece{next_unit_++, 0.0, nullptr};
            }
            Running *victim = nullptr;
            bool waiting = false;
            for (Running *r : running_) {
                waiting |= r->ask_ != nullptr;
                if (r->ask_ ||
                    r->live_.load(std::memory_order_relaxed) < 2)
                    continue;
                if (!victim ||
                    r->remaining_.load(std::memory_order_relaxed) >
                        victim->remaining_.load(std::memory_order_relaxed))
                    victim = r;
            }
            if (victim) {
                Ask ask;
                victim->ask_ = &ask;
                victim->asked_.store(true, std::memory_order_relaxed);
                changed_.wait(lock, [&] { return ask.answered; });
                if (ask.piece)
                    return std::move(ask.piece);
                continue;
            }
            // A unit being built, or a split in flight, may leave a
            // piece worth splitting.
            if (!waiting && starting_ == 0)
                return std::nullopt;
            changed_.wait(lock);
        }
    }

    /** A unit next() handed out will not become a lockstep piece. */
    void
    started()
    {
        const std::lock_guard lock(mutex_);
        --starting_;
        changed_.notify_all();
    }

    /** Start nothing more (a worker failed outside any job). */
    void
    stop()
    {
        const std::lock_guard lock(mutex_);
        stopped_ = true;
        changed_.notify_all();
    }

    /** Pieces split off so far. */
    std::size_t splits() const { return splits_; }

  private:
    std::mutex mutex_;
    std::condition_variable changed_;
    const std::size_t units_;
    std::size_t next_unit_ = 0;
    /** Units handed out that may yet become lockstep pieces. */
    std::size_t starting_ = 0;
    std::vector<Running *> running_;
    std::size_t splits_ = 0;
    bool stopped_ = false;
};

} // namespace

std::vector<SweepRunner::Unit>
planUnits(const std::vector<SweepJob> &grid,
          const std::vector<std::size_t> &pending,
          const std::optional<std::uint64_t> &base_seed, unsigned workers)
{
    std::vector<Unit> groups;
    std::vector<trace::WorkloadProfile> traces; // one per group
    // (name, seed, length) narrows the search to a few whole-profile
    // comparisons per job.
    std::map<std::tuple<std::string, std::uint64_t, Count>,
             std::vector<std::size_t>>
        buckets;
    for (const std::size_t i : pending) {
        trace::WorkloadProfile profile = grid[i].profile;
        profile.seed = jobSeed(grid[i], base_seed);
        std::vector<std::size_t> &bucket =
            buckets[{profile.name, profile.seed, grid[i].instructions}];
        const auto same =
            std::find_if(bucket.begin(), bucket.end(),
                         [&](std::size_t g) { return traces[g] == profile; });
        if (same != bucket.end()) {
            groups[*same].push_back(i);
            continue;
        }
        bucket.push_back(groups.size());
        groups.push_back({i});
        traces.push_back(std::move(profile));
    }
    if (groups.empty())
        return {};
    // One worker has nothing to balance: a cut would only synthesize
    // the trace again.
    const std::size_t target =
        std::min(pending.size(), std::size_t{3} * workers);
    const std::size_t split =
        workers <= 1 ? 1 : (target + groups.size() - 1) / groups.size();
    std::vector<Unit> units;
    for (const Unit &group : groups) {
        const std::size_t parts = std::min(split, group.size());
        for (std::size_t p = 0; p < parts; ++p)
            units.emplace_back(group.begin() + group.size() * p / parts,
                               group.begin() +
                                   group.size() * (p + 1) / parts);
    }
    return units;
}

std::vector<core::RunResult>
SweepRunner::run(const std::vector<SweepJob> &grid)
{
    if (options_.preflight)
        preflightGrid(grid);
    if (options_.model_advice)
        adviseGrid(grid, options_.watchdog);
    std::vector<std::size_t> all(grid.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    return runFailFast(grid.size(), planUnits(grid, all, options_.base_seed, 1),
                       gridAttempt(grid, options_), gridStart(grid, options_));
}

std::vector<SweepOutcome>
SweepRunner::runOutcomes(const std::vector<SweepJob> &grid)
{
    if (options_.preflight)
        preflightGrid(grid);
    if (options_.model_advice)
        adviseGrid(grid, options_.watchdog);

    const std::size_t n = grid.size();
    std::vector<SweepOutcome> outcomes(n);
    std::unique_ptr<JournalWriter> writer;
    if (!options_.journal.empty())
        writer = openGridJournal(options_.journal, options_.resume,
                                 gridFingerprint(grid, options_.base_seed),
                                 outcomes);

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        if (!outcomes[i].resumed)
            pending.push_back(i);
    if (obs::SpanLog *log = options_.span_log)
        for (std::size_t i = 0; i < n; ++i) {
            if (!outcomes[i].resumed)
                continue;
            const std::size_t job = spanJob(i);
            const std::string label =
                grid[i].profile.name + "@" + grid[i].machine.name;
            const double now = log->nowUs();
            log->addAttempt(job, /*attempt=*/0, label, now, now);
            log->addJob(job, label, now, now);
        }

    std::function<void(std::size_t, const SweepOutcome &)> on_complete;
    if (writer)
        on_complete = [&](std::size_t i, const SweepOutcome &out) {
            writer->append(jobRecord(grid[i], i, options_.base_seed, out));
        };
    executeOutcomes(outcomes, planUnits(grid, pending, options_.base_seed, 1),
                    gridAttempt(grid, options_), gridStart(grid, options_),
                    on_complete);
    return outcomes;
}

std::vector<core::RunResult>
SweepRunner::runTasks(
    const std::vector<std::function<core::RunResult()>> &tasks)
{
    return runFailFast(tasks.size(), singletons(tasks.size()),
                       taskAttempt(tasks), {});
}

std::vector<SweepOutcome>
SweepRunner::runTaskOutcomes(
    const std::vector<std::function<core::RunResult()>> &tasks)
{
    std::vector<SweepOutcome> outcomes(tasks.size());
    executeOutcomes(outcomes, singletons(tasks.size()), taskAttempt(tasks),
                    {}, {});
    return outcomes;
}

std::vector<core::RunResult>
SweepRunner::runFailFast(std::size_t n, const std::vector<Unit> &units,
                         const UnitAttempt &attempt,
                         const UnitStart &lockstep)
{
    std::vector<SweepOutcome> outcomes(n);
    std::exception_ptr first_error;
    executeOutcomes(outcomes, units, attempt, lockstep, {}, &first_error);
    if (first_error)
        std::rethrow_exception(first_error);
    std::vector<core::RunResult> results;
    results.reserve(n);
    for (SweepOutcome &out : outcomes)
        results.push_back(std::move(out.result));
    return results;
}

void
SweepRunner::executeOutcomes(
    std::vector<SweepOutcome> &outcomes, const std::vector<Unit> &units,
    const UnitAttempt &attempt, const UnitStart &lockstep,
    const std::function<void(std::size_t, const SweepOutcome &)>
        &on_complete,
    std::exception_ptr *first_error)
{
    std::size_t n = 0;
    for (const Unit &unit : units)
        n += unit.size();
    std::atomic<Count> synthesized{0};

    const WallTimer wall;
    const unsigned pool = workers();
    const unsigned max_attempts = first_error ? 1 : options_.retries + 1;
    const std::uint64_t backoff = options_.backoff_ms;
    obs::SpanLog *span_log = options_.span_log;
    const auto now_us = [span_log] {
        return span_log ? span_log->nowUs() : 0.0;
    };
    // Cooperative cancellation: refuse to *start* an attempt once the
    // flag is up; an attempt already simulating is left to finish
    // (and journal) normally. A fail-fast run raises its own flag on
    // its first failure.
    std::atomic<bool> stop{false};
    const std::atomic<bool> *cancel = first_error ? &stop : options_.cancel;
    const auto cancelled = [cancel] {
        return cancel && cancel->load(std::memory_order_relaxed);
    };
    ProgressMeter meter(options_, outcomes.size(), outcomes.size() - n);

    // Close one attempt of job @p i: its span, and its label.
    const auto close_attempt = [&](std::size_t i, unsigned attempt_no,
                                   double start, std::string &label) {
        if (!span_log)
            return;
        const SweepOutcome &out = outcomes[i];
        const std::size_t job = spanJob(i);
        label = out.ok && !out.result.benchmark.empty()
                    ? out.result.benchmark + "@" + out.result.model
                    : "job " + std::to_string(job);
        span_log->addAttempt(job, attempt_no, label, start, now_us(),
                             out.ok ? std::string() : out.error);
    };

    // Close job @p i's first attempt @p first (null: never started),
    // begun at @p start, and retry it alone while it fails. Never
    // throws but for on_complete and the progress callback.
    const auto complete = [&](std::size_t i, core::SharedMachineRun *first,
                              double start) {
        SweepOutcome &out = outcomes[i];
        std::string label;
        if (!first) {
            out.ok = false;
            out.code = util::SimErrorCode::Cancelled;
            out.error = "cancelled before execution";
            out.attempts = 0;
            if (first_error)
                return; // skipped: never done, never reported
        } else {
            recordAttempt(out, *first);
            out.attempts = 1;
            out.seconds = first->seconds;
            close_attempt(i, 1, start, label);
            // The first failure of a fail-fast run keeps its original
            // exception and stops the grid.
            if (first_error && !out.ok && !stop.exchange(true))
                *first_error = first->error;
        }
        // Retry a failed member alone. A deadline expiry is
        // deterministic for a hung simulation: retrying would only
        // re-spend the whole deadline.
        for (unsigned attempt_no = 2;
             first && !out.ok && out.code != util::SimErrorCode::Timeout &&
             attempt_no <= max_attempts;
             ++attempt_no) {
            if (cancelled()) {
                out.code = util::SimErrorCode::Cancelled;
                out.error = "cancelled before retry";
                break;
            }
            const WallTimer retry_timer;
            if (backoff)
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    backoffDelayMs(backoff, attempt_no)));
            out.attempts = attempt_no;
            const double retry_start = now_us();
            core::SharedRun again = attempt(std::span(&i, 1));
            synthesized += again.synthesized;
            recordAttempt(out, again.machines.front());
            out.seconds += retry_timer.seconds();
            close_attempt(i, attempt_no, retry_start, label);
        }
        if (span_log && out.attempts > 0)
            span_log->addJob(spanJob(i), label, start, now_us());
        if (on_complete)
            on_complete(i, out);
        if (meter.enabled())
            meter.onOutcome(out);
    };

    // Step a lockstep piece to its end, splitting it for thieves
    // between rounds, then close its members.
    StealPool steal(units.size());
    const auto run_piece = [&](StealPool::Piece &piece, bool fresh) {
        {
            StealPool::Running running(steal, piece, fresh);
            for (bool more = true; more; more = piece.lockstep->step())
                running.poll();
        }
        synthesized += piece.lockstep->synthesized();
        const Unit &unit = units[piece.unit];
        for (auto &[k, run] : piece.lockstep->take())
            complete(unit[k], &run, piece.start_us);
    };

    // Start a unit's first attempt: a lockstep unit when the jobs
    // share a trace, else the whole attempt at once.
    const auto run_unit = [&](StealPool::Piece &piece) {
        const Unit &unit = units[piece.unit];
        piece.start_us = now_us();
        if (lockstep && !cancelled()) {
            try {
                piece.lockstep = lockstep(unit);
            } catch (...) {
                // The shared trace itself failed: so did every member.
                steal.started();
                core::SharedMachineRun failed;
                failed.error = std::current_exception();
                for (const std::size_t i : unit) {
                    core::SharedMachineRun run = failed;
                    complete(i, &run, piece.start_us);
                }
                return;
            }
            run_piece(piece, true);
            return;
        }
        steal.started();
        if (cancelled()) {
            for (const std::size_t i : unit)
                complete(i, nullptr, piece.start_us);
            return;
        }
        core::SharedRun first = attempt(unit);
        synthesized += first.synthesized;
        for (std::size_t k = 0; k < unit.size(); ++k)
            complete(unit[k], &first.machines[k], piece.start_us);
    };

    // One loop per worker. Failures are captured into outcome slots;
    // only a journal or progress callback can throw, which stops the
    // pool and propagates through parallelFor.
    const unsigned threads = static_cast<unsigned>(
        std::min<std::size_t>(pool, std::max<std::size_t>(n, 1)));
    parallelFor(threads, threads, [&](std::size_t) {
        try {
            while (std::optional<StealPool::Piece> piece = steal.next()) {
                if (piece->lockstep)
                    run_piece(*piece, false);
                else
                    run_unit(*piece);
            }
        } catch (...) {
            steal.stop();
            throw;
        }
    });
    accountOutcomes(outcomes, wall.seconds(), synthesized.load(),
                    first_error != nullptr);
    report_.splits += steal.splits();
}

std::size_t
SweepRunner::spanJob(std::size_t i) const
{
    return options_.span_jobs.empty() ? i : options_.span_jobs[i];
}

void
SweepRunner::accountOutcomes(const std::vector<SweepOutcome> &outcomes,
                             double wall_seconds, Count synthesized,
                             bool fail_fast)
{
    const std::size_t n = outcomes.size();
    report_.workers = static_cast<unsigned>(std::min<std::size_t>(
        workers(), std::max<std::size_t>(n, 1)));
    report_.jobs += n;
    report_.wall_seconds += wall_seconds;
    report_.synthesized_instructions += synthesized;
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
            ++(fail_fast ? report_.skipped_jobs : report_.cancelled_jobs);
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

} // namespace aurora::harness
