/**
 * @file
 * Per-job fault isolation tests for SweepRunner::runOutcomes():
 * a poisoned grid always runs to completion, healthy jobs stay
 * bit-identical to an all-healthy sweep at any worker count, failures
 * carry structured error codes, and the retry policy is honored.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using namespace aurora::harness;
namespace fi = aurora::faultinject;
using util::SimErrorCode;

constexpr Count N = 20000;

/** Field-exact RunResult comparison (bit-identical doubles). */
void
expectRunEq(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.issuing_cycles, b.issuing_cycles);
    EXPECT_EQ(a.tail_cycles, b.tail_cycles);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.fp_dispatched, b.fp_dispatched);
    EXPECT_EQ(a.issue_width_cycles, b.issue_width_cycles);
    EXPECT_EQ(a.avg_rob_occupancy, b.avg_rob_occupancy);
    EXPECT_EQ(a.avg_mshr_occupancy, b.avg_mshr_occupancy);
    const auto occ_eq = [](const OccupancyStats &x,
                           const OccupancyStats &y) {
        EXPECT_EQ(x.mean, y.mean);
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p95, y.p95);
        EXPECT_EQ(x.max, y.max);
    };
    occ_eq(a.rob_occupancy, b.rob_occupancy);
    occ_eq(a.mshr_occupancy, b.mshr_occupancy);
    occ_eq(a.fp_instq_occupancy, b.fp_instq_occupancy);
    occ_eq(a.fp_loadq_occupancy, b.fp_loadq_occupancy);
    occ_eq(a.fp_storeq_occupancy, b.fp_storeq_occupancy);
    EXPECT_EQ(a.cpi(), b.cpi());
}

/**
 * A 9-job grid with every third job poisoned: index 2 is an invalid
 * config, index 5 a wedged (never-retiring) machine, index 8 an
 * invalid config again.
 */
struct PoisonedGrid
{
    std::vector<SweepJob> jobs;
    std::vector<bool> bad;
    std::vector<SweepJob> healthy;
};

PoisonedGrid
poisonedGrid()
{
    PoisonedGrid g;
    const std::string benches[] = {"espresso", "li",    "gcc",
                                   "compress", "nasa7", "doduc",
                                   "eqntott",  "sc",    "ora"};
    for (const auto &name : benches)
        g.healthy.push_back(
            {baselineModel(), trace::profileByName(name), N});
    g.jobs = g.healthy;
    g.bad.assign(g.jobs.size(), false);

    g.jobs[2].machine =
        fi::poisonConfig(g.jobs[2].machine, fi::ConfigFault::ZeroRob);
    g.jobs[5].machine = fi::wedgeConfig(g.jobs[5].machine);
    g.jobs[8].machine = fi::poisonConfig(
        g.jobs[8].machine, fi::ConfigFault::OverlongFpLatency);
    g.bad[2] = g.bad[5] = g.bad[8] = true;
    return g;
}

SweepOptions
isolationOptions(unsigned workers)
{
    SweepOptions opts;
    opts.workers = workers;
    opts.base_seed = 0xfeedface;
    // Tight stall window so the wedged job fails in milliseconds; far
    // above any healthy retirement gap at these run lengths.
    opts.watchdog = WatchdogConfig{2000, 0};
    // These tests exercise the *runtime* detectors (validate() in the
    // worker, the forward-progress watchdog); the static preflight
    // would reject the poisoned grids before any worker started.
    opts.preflight = false;
    return opts;
}

TEST(SweepOutcomes, PoisonedGridCompletesAndHealthyJobsAreIdentical)
{
    const auto g = poisonedGrid();

    // All-healthy reference through the same machinery.
    SweepRunner ref(isolationOptions(4));
    const auto reference = ref.runOutcomes(g.healthy);
    for (const auto &out : reference)
        ASSERT_TRUE(out.ok) << out.error;

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        SweepRunner runner(isolationOptions(workers));
        const auto outcomes = runner.runOutcomes(g.jobs);
        ASSERT_EQ(outcomes.size(), g.jobs.size());

        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i));
            if (g.bad[i]) {
                EXPECT_FALSE(outcomes[i].ok);
                EXPECT_FALSE(outcomes[i].error.empty());
                EXPECT_EQ(outcomes[i].code,
                          i == 5 ? SimErrorCode::NoForwardProgress
                                 : SimErrorCode::BadConfig);
            } else {
                ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
                expectRunEq(outcomes[i].result, reference[i].result);
            }
        }

        const auto &rep = runner.report();
        EXPECT_EQ(rep.ok_jobs, 6u);
        EXPECT_EQ(rep.failed_jobs, 3u);
        EXPECT_EQ(rep.retried_jobs, 0u);
        const std::string summary = rep.summary();
        EXPECT_NE(summary.find("failed 3"), std::string::npos)
            << summary;
    }
}

TEST(SweepOutcomes, FailedJobsDoNotCountInstructions)
{
    const auto g = poisonedGrid();
    SweepRunner runner(isolationOptions(4));
    runner.runOutcomes(g.jobs);
    EXPECT_EQ(runner.report().total_instructions, Count{6} * N);
}

TEST(SweepOutcomes, MatchesFailFastResultsOnHealthyGrids)
{
    // runOutcomes() and run() must simulate identically when nothing
    // fails (same derived seeds, same watchdog resolution).
    const auto g = poisonedGrid();
    SweepRunner a(isolationOptions(4));
    SweepRunner b(isolationOptions(4));
    const auto outcomes = a.runOutcomes(g.healthy);
    const auto results = b.run(g.healthy);
    ASSERT_EQ(outcomes.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        ASSERT_TRUE(outcomes[i].ok);
        expectRunEq(outcomes[i].result, results[i]);
    }
}

TEST(SweepOutcomes, RetriesRecoverTransientFailures)
{
    // A task that fails on its first invocation only — the shape of a
    // transient environment fault, reproduced deterministically.
    std::atomic<unsigned> calls{0};
    std::vector<std::function<RunResult()>> tasks;
    tasks.push_back([&calls]() {
        if (calls.fetch_add(1) == 0)
            util::raiseError(SimErrorCode::Internal, "transient");
        return simulate(baselineModel(), trace::espresso(), 2000);
    });

    SweepOptions with_retries;
    with_retries.retries = 2;
    SweepRunner runner(with_retries);
    const auto outcomes = runner.runTaskOutcomes(tasks);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_EQ(runner.report().retried_jobs, 1u);
    EXPECT_EQ(runner.report().failed_jobs, 0u);
    EXPECT_NE(runner.report().summary().find("retried 1"),
              std::string::npos)
        << runner.report().summary();
}

TEST(SweepOutcomes, WithoutRetriesTransientFailureIsTerminal)
{
    std::atomic<unsigned> calls{0};
    std::vector<std::function<RunResult()>> tasks;
    tasks.push_back([&calls]() {
        if (calls.fetch_add(1) == 0)
            util::raiseError(SimErrorCode::Internal, "transient");
        return simulate(baselineModel(), trace::espresso(), 2000);
    });

    SweepOptions no_retries;
    no_retries.retries = 0;
    SweepRunner runner(no_retries);
    const auto outcomes = runner.runTaskOutcomes(tasks);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[0].code, SimErrorCode::Internal);
    EXPECT_EQ(runner.report().failed_jobs, 1u);
}

TEST(SweepOutcomes, PermanentFaultExhaustsEveryAttempt)
{
    std::atomic<unsigned> calls{0};
    std::vector<std::function<RunResult()>> tasks;
    tasks.push_back([&calls]() -> RunResult {
        calls.fetch_add(1);
        util::raiseError(SimErrorCode::BadConfig, "always broken");
    });

    SweepOptions opts;
    opts.retries = 3;
    SweepRunner runner(opts);
    const auto outcomes = runner.runTaskOutcomes(tasks);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 4u);
    EXPECT_EQ(calls.load(), 4u);
    EXPECT_EQ(outcomes[0].code, SimErrorCode::BadConfig);
    EXPECT_NE(outcomes[0].error.find("always broken"),
              std::string::npos);
}

TEST(SweepOutcomes, NonSimErrorsAreClassifiedInternal)
{
    std::vector<std::function<RunResult()>> tasks;
    tasks.push_back([]() -> RunResult {
        throw std::out_of_range("vector index");
    });
    SweepRunner runner;
    const auto outcomes = runner.runTaskOutcomes(tasks);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].code, SimErrorCode::Internal);
    EXPECT_NE(outcomes[0].error.find("vector index"),
              std::string::npos);
}

TEST(SweepOutcomes, EmptyGridIsHarmless)
{
    SweepRunner runner;
    EXPECT_TRUE(runner.runOutcomes({}).empty());
    EXPECT_EQ(runner.report().ok_jobs, 0u);
    EXPECT_EQ(runner.report().failed_jobs, 0u);
}

TEST(SweepOutcomes, DeadlineConvertsHangIntoTimeout)
{
    // One wedged machine (validates, never retires) among healthy
    // jobs. The stall watchdog is disabled, so only the wall-clock
    // deadline can end the hung run. The deadline is generous and the
    // healthy jobs small: sanitizer builds slow every job down, and
    // only the wedge may ever expire.
    std::vector<SweepJob> grid;
    grid.push_back({baselineModel(), trace::espresso(), 5000});
    grid.push_back(
        {fi::wedgeConfig(baselineModel()), trace::nasa7(), 5000});
    grid.push_back({baselineModel(), trace::li(), 5000});

    SweepOptions opts;
    opts.workers = 4;
    opts.base_seed = 0xfeedface;
    opts.watchdog = WatchdogConfig{0, 0};
    opts.deadline_ms = 2000;
    opts.retries = 3; // must not apply to the deterministic hang
    opts.preflight = false; // the wedge must reach a worker
    SweepRunner runner(opts);
    const auto outcomes = runner.runOutcomes(grid);

    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].code, SimErrorCode::Timeout);
    EXPECT_EQ(outcomes[1].attempts, 1u);
    EXPECT_NE(outcomes[1].error.find("deadline"), std::string::npos)
        << outcomes[1].error;

    const auto &rep = runner.report();
    EXPECT_EQ(rep.timed_out_jobs, 1u);
    EXPECT_EQ(rep.failed_jobs, 0u);
    EXPECT_EQ(rep.ok_jobs, 2u);
    EXPECT_EQ(rep.jobs, rep.ok_jobs + rep.failed_jobs +
                            rep.timed_out_jobs + rep.skipped_jobs);
    EXPECT_NE(rep.summary().find("timed out 1"), std::string::npos)
        << rep.summary();
}

TEST(SweepOutcomes, DeadlineZeroMeansUnlimited)
{
    std::vector<SweepJob> grid;
    grid.push_back({baselineModel(), trace::espresso(), N});
    SweepOptions opts;
    opts.deadline_ms = 0;
    SweepRunner runner(opts);
    const auto outcomes = runner.runOutcomes(grid);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
}

TEST(SweepOutcomes, FailFastAbortBalancesTheBooks)
{
    // Serial fail-fast: task 1 throws, tasks 2 and 3 are drained
    // unrun. The report must still balance
    // jobs == ok + failed + timed_out + skipped.
    std::vector<std::function<RunResult()>> tasks;
    tasks.push_back([]() {
        return simulate(baselineModel(), trace::espresso(), 2000);
    });
    tasks.push_back([]() -> RunResult {
        util::raiseError(SimErrorCode::BadConfig, "abort the sweep");
    });
    tasks.push_back([]() {
        return simulate(baselineModel(), trace::li(), 2000);
    });
    tasks.push_back([]() {
        return simulate(baselineModel(), trace::gcc(), 2000);
    });

    SweepOptions opts;
    opts.workers = 1;
    SweepRunner runner(opts);
    EXPECT_THROW(runner.runTasks(tasks), util::SimError);

    const auto &rep = runner.report();
    EXPECT_EQ(rep.jobs, 4u);
    EXPECT_EQ(rep.ok_jobs, 1u);
    EXPECT_EQ(rep.failed_jobs, 1u);
    EXPECT_EQ(rep.timed_out_jobs, 0u);
    EXPECT_EQ(rep.skipped_jobs, 2u);
    EXPECT_EQ(rep.jobs, rep.ok_jobs + rep.failed_jobs +
                            rep.timed_out_jobs + rep.skipped_jobs);
    EXPECT_NE(rep.summary().find("skipped 2"), std::string::npos)
        << rep.summary();
}

TEST(SweepOutcomes, PooledFailFastAbortStillBalances)
{
    std::vector<std::function<RunResult()>> tasks;
    for (int i = 0; i < 12; ++i) {
        if (i == 2)
            tasks.push_back([]() -> RunResult {
                util::raiseError(SimErrorCode::BadTrace, "poisoned");
            });
        else
            tasks.push_back([]() {
                return simulate(baselineModel(), trace::espresso(),
                                2000);
            });
    }
    SweepOptions opts;
    opts.workers = 4;
    SweepRunner runner(opts);
    EXPECT_THROW(runner.runTasks(tasks), util::SimError);
    const auto &rep = runner.report();
    EXPECT_EQ(rep.jobs, 12u);
    EXPECT_GE(rep.skipped_jobs, 1u); // the abort drained a tail
    EXPECT_EQ(rep.jobs, rep.ok_jobs + rep.failed_jobs +
                            rep.timed_out_jobs + rep.skipped_jobs);
}

TEST(SweepPreflight, RejectsPoisonedGridBeforeAnyWorkerStarts)
{
    // Default-on preflight: the same poisoned grid the isolation
    // tests run to completion is rejected up front — including job 5,
    // the wedged machine that validate() accepts — and no job
    // executes (report().jobs stays zero).
    const auto g = poisonedGrid();
    SweepOptions opts;
    opts.workers = 4;
    try {
        SweepRunner runner(opts);
        runner.runOutcomes(g.jobs);
        FAIL() << "preflight accepted a poisoned grid";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadConfig);
        const std::string what = e.what();
        EXPECT_NE(what.find("preflight"), std::string::npos) << what;
        EXPECT_NE(what.find("job 2"), std::string::npos) << what;
        EXPECT_NE(what.find("job 5"), std::string::npos) << what;
        EXPECT_NE(what.find("job 8"), std::string::npos) << what;
        EXPECT_NE(what.find("AUR001"), std::string::npos) << what;
        EXPECT_NE(what.find("AUR010"), std::string::npos) << what;
        EXPECT_NE(what.find("AUR007"), std::string::npos) << what;
    }

    SweepRunner fresh(opts);
    EXPECT_THROW(fresh.run(g.jobs), util::SimError);
    EXPECT_EQ(fresh.report().jobs, 0u);
}

TEST(SweepPreflight, CleanGridPassesAndWarningsDoNotBlock)
{
    SweepOptions opts;
    opts.workers = 2;
    ASSERT_TRUE(opts.preflight);
    SweepRunner runner(opts);

    // A warning-only machine (write cache narrower than the issue
    // width) must still launch: only errors gate.
    MachineConfig warn_only = baselineModel();
    warn_only.write_cache.lines = 1;
    std::vector<SweepJob> grid;
    grid.push_back({warn_only, trace::espresso(), 2000});
    const auto outcomes = runner.runOutcomes(grid);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
}

TEST(SweepPreflight, ModelAdvisorIsProvablyInert)
{
    // The analytic preflight advisor is log-only. With it on, every
    // outcome must be bit-identical to the advisor-off run — same
    // cycles, same occupancy stats, same report — or "advisory"
    // would be a lie.
    std::vector<SweepJob> grid;
    for (const auto &name : {"espresso", "li", "nasa7", "ora"})
        grid.push_back(
            {baselineModel(), trace::profileByName(name), 5000});

    SweepOptions off;
    off.workers = 2;
    off.base_seed = 0xfeedface;
    off.model_advice = false;
    SweepRunner quiet(off);
    const auto baseline = quiet.runOutcomes(grid);

    SweepOptions on = off;
    on.model_advice = true;
    SweepRunner advised(on);
    const auto outcomes = advised.runOutcomes(grid);

    ASSERT_EQ(outcomes.size(), baseline.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        expectRunEq(outcomes[i].result, baseline[i].result);
    }
    EXPECT_EQ(advised.report().ok_jobs, quiet.report().ok_jobs);

    // Under a starved cycle budget the advisor predicts the doom up
    // front (its budget-warning branch) — but the *outcome* is the
    // watchdog's call either way, advisor on or off.
    SweepOptions tight_off = off;
    tight_off.watchdog = WatchdogConfig{0, 100};
    SweepOptions tight_on = tight_off;
    tight_on.model_advice = true;
    SweepRunner doomed_quiet(tight_off);
    SweepRunner doomed_advised(tight_on);
    const auto doomed_a = doomed_quiet.runOutcomes(grid);
    const auto doomed_b = doomed_advised.runOutcomes(grid);
    ASSERT_EQ(doomed_a.size(), doomed_b.size());
    for (std::size_t i = 0; i < doomed_a.size(); ++i) {
        SCOPED_TRACE("budget-limited job " + std::to_string(i));
        EXPECT_EQ(doomed_a[i].ok, doomed_b[i].ok);
        EXPECT_EQ(doomed_a[i].code, doomed_b[i].code);
    }
}

TEST(SweepPreflight, ModelAdvisorDefaultsOff)
{
    EXPECT_FALSE(SweepOptions{}.model_advice);
}

/**
 * Sets hostile values for every environment variable that once
 * overrode sweep policy, and unsets them all on scope exit.
 */
class HostileSweepEnvironment
{
  public:
    HostileSweepEnvironment()
    {
        for (const auto &[name, value] : VARS)
            EXPECT_EQ(setenv(name, value, 1), 0) << name;
    }

    ~HostileSweepEnvironment()
    {
        for (const auto &[name, value] : VARS)
            unsetenv(name);
    }

  private:
    static constexpr std::pair<const char *, const char *> VARS[] = {
        {"AURORA_WATCHDOG_CYCLES", "1"},
        {"AURORA_SWEEP_DEADLINE_MS", "1"},
        {"AURORA_SWEEP_RETRIES", "3"},
        {"AURORA_SWEEP_BACKOFF_MS", "1"},
        {"AURORA_PREFLIGHT", "0"},
        {"AURORA_PREFLIGHT_MODEL", "1"},
        {"AURORA_PROGRESS", "1"},
    };
};

/** Outcome fields the environment once changed, job by job. */
void
expectSameOutcome(const SweepOutcome &a, const SweepOutcome &b)
{
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.attempts, b.attempts);
    if (!a.ok || !b.ok) {
        EXPECT_EQ(a.code, b.code);
        return;
    }
    expectRunEq(a.result, b.result);
}

TEST(SweepPolicy, EnvironmentNoLongerChangesAGrid)
{
    // Sweep policy is SweepOptions and nothing else: a grid run with
    // default options gives the same outcomes and attempts whatever
    // the environment says.
    std::vector<SweepJob> grid;
    for (const auto &name : {"espresso", "li", "nasa7"})
        grid.push_back(
            {baselineModel(), trace::profileByName(name), 5000});
    // runJob skips the preflight, so an invalid machine reaches a
    // worker and fails there: its attempt count shows the retry
    // policy in force.
    std::vector<SweepJob> sub_grid = grid;
    sub_grid.push_back({fi::poisonConfig(baselineModel(),
                                         fi::ConfigFault::ZeroRob),
                        trace::gcc(), 5000});
    const std::vector<std::size_t> indices = {0, 1, 2, 3};

    const auto plain = SweepRunner().runOutcomes(grid);
    const auto plain_records = runJob(sub_grid, indices, {});
    ASSERT_FALSE(plain_records.back().outcome.ok);

    const HostileSweepEnvironment hostile;
    const auto outcomes = SweepRunner().runOutcomes(grid);
    ASSERT_EQ(outcomes.size(), plain.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        SCOPED_TRACE("runOutcomes job " + std::to_string(i));
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        expectSameOutcome(outcomes[i], plain[i]);
    }
    const auto records = runJob(sub_grid, indices, {});
    ASSERT_EQ(records.size(), plain_records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        SCOPED_TRACE("runJob job " + std::to_string(i));
        expectSameOutcome(records[i].outcome, plain_records[i].outcome);
    }

    // The preflight still rejects a lint-error grid.
    SweepRunner gated;
    EXPECT_THROW(gated.runOutcomes(poisonedGrid().jobs), util::SimError);
    EXPECT_EQ(gated.report().jobs, 0u);
}

TEST(SweepOutcomes, RetryBackoffDelaysTheSecondAttempt)
{
    std::atomic<unsigned> calls{0};
    std::vector<std::function<RunResult()>> tasks;
    tasks.push_back([&calls]() {
        if (calls.fetch_add(1) == 0)
            util::raiseError(SimErrorCode::Internal, "transient");
        return simulate(baselineModel(), trace::espresso(), 2000);
    });

    SweepOptions opts;
    opts.retries = 1;
    opts.backoff_ms = 60;
    SweepRunner runner(opts);
    const WallTimer timer;
    const auto outcomes = runner.runTaskOutcomes(tasks);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 2u);
    // The second attempt waited the base backoff delay first.
    EXPECT_GE(timer.seconds(), 0.055);
}

} // namespace
