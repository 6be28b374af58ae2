/**
 * @file
 * Shared-trace lockstep sweeps. SweepRunner runs the pending grid jobs
 * that replay one trace as units over a single synthesized stream
 * (core::simulateShared). Every result must equal a per-job
 * core::simulate() byte for byte at any worker count, a failing
 * member must fail alone, and a journal resume regroups only the jobs
 * that are left.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using namespace aurora::harness;
namespace fs = std::filesystem;
using util::SimErrorCode;

constexpr Count N = 20'000;

/** Figure 4: study models x issue {1,2} x latency {17,35} x int suite. */
std::vector<SweepJob>
fig4Grid()
{
    std::vector<SweepJob> grid;
    for (const MachineConfig &model : studyModels())
        for (const unsigned issue : {1u, 2u})
            for (const Cycle latency : {17u, 35u})
                for (const auto &profile : trace::integerSuite())
                    grid.push_back(
                        {model.withIssueWidth(issue).withLatency(latency),
                         profile, N});
    return grid;
}

std::string
soloBytes(const SweepJob &job)
{
    return runResultBytes(
        simulate(job.machine, job.profile, job.instructions));
}

/** Result bytes of every job of @p grid run on its own. */
std::vector<std::string>
soloBytes(const std::vector<SweepJob> &grid)
{
    std::vector<std::string> bytes;
    for (const SweepJob &job : grid)
        bytes.push_back(soloBytes(job));
    return bytes;
}

/** A machine that validates but never completes an FP op. */
MachineConfig
wedged()
{
    MachineConfig m = baselineModel();
    m.name = "wedged";
    m.fpu.result_buses = 0;
    return m;
}

TEST(Lockstep, Fig4GridMatchesPerJobSimulate)
{
    const std::vector<SweepJob> grid = fig4Grid();
    const std::vector<std::string> solo = soloBytes(grid);
    // Six traces, each replayed by twelve machines. The unit rule
    // targets min(72, 3 x workers) units: one per trace at one worker
    // (units of 12), two per trace at three or four (units of 6).
    const std::pair<unsigned, Count> cases[] = {{1, 6}, {3, 12}, {4, 12}};
    for (const auto &[workers, units] : cases) {
        SweepOptions opts;
        opts.workers = workers;
        SweepRunner runner(opts);
        const auto outcomes = runner.runOutcomes(grid);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
            EXPECT_EQ(runResultBytes(outcomes[i].result), solo[i])
                << "job " << i << " at " << workers << " workers";
        }
        const SweepReport &rep = runner.report();
        EXPECT_EQ(rep.total_instructions, grid.size() * N);
        EXPECT_EQ(rep.synthesized_instructions, units * N)
            << workers << " workers";
        EXPECT_NE(rep.summary().find(std::to_string(units * N) +
                                     " synthesized"),
                  std::string::npos)
            << rep.summary();

        // The fail-fast entry point groups the same way.
        SweepRunner fast(opts);
        const auto results = fast.run(grid);
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(runResultBytes(results[i]), solo[i]) << "job " << i;
        EXPECT_EQ(fast.report().synthesized_instructions, units * N);
    }
}

TEST(Lockstep, OneWorkerNeverCutsAGroup)
{
    // One trace, six machines, one worker: nothing to balance, so the
    // group runs as one unit and the trace is synthesized once.
    std::vector<SweepJob> grid;
    for (const MachineConfig &model : studyModels())
        for (const unsigned issue : {1u, 2u})
            grid.push_back({model.withIssueWidth(issue), trace::li(), N});
    const std::vector<std::string> solo = soloBytes(grid);
    SweepOptions opts;
    opts.workers = 1;
    SweepRunner runner(opts);
    const auto outcomes = runner.runOutcomes(grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(runResultBytes(outcomes[i].result), solo[i])
            << "job " << i;
    }
    EXPECT_EQ(runner.report().synthesized_instructions, N);
}

TEST(Lockstep, SimulateSharedIsolatesEveryMember)
{
    MachineConfig invalid = baselineModel();
    invalid.name = "invalid";
    invalid.issue_width = 3;
    const std::vector<MachineConfig> machines = {
        baselineModel(), wedged(), invalid, largeModel()};
    const WatchdogConfig watchdog{2000, 0};
    const SharedRun run =
        simulateShared(machines, trace::nasa7(), N, watchdog);
    ASSERT_EQ(run.machines.size(), machines.size());
    EXPECT_EQ(run.synthesized, N);

    const auto code_of = [](const SharedMachineRun &m) {
        try {
            std::rethrow_exception(m.error);
        } catch (const util::SimError &e) {
            return e.code();
        }
        return SimErrorCode::Internal;
    };
    ASSERT_TRUE(run.machines[1].error);
    EXPECT_EQ(code_of(run.machines[1]), SimErrorCode::NoForwardProgress);
    ASSERT_TRUE(run.machines[2].error);
    EXPECT_EQ(code_of(run.machines[2]), SimErrorCode::BadConfig);
    for (const std::size_t i : {0u, 3u}) {
        ASSERT_FALSE(run.machines[i].error);
        EXPECT_EQ(runResultBytes(run.machines[i].result),
                  runResultBytes(simulate(machines[i], trace::nasa7(), N,
                                          watchdog)));
    }
}

/** Grid index of the wedged machine in wedgedGrid(). */
constexpr std::size_t WEDGED_JOB = 1;

/**
 * Three traces x three machines; the nasa7 group, first in grid
 * order, also holds the wedged machine at WEDGED_JOB. At one worker
 * the rule makes one unit per trace.
 */
std::vector<SweepJob>
wedgedGrid()
{
    std::vector<SweepJob> grid;
    for (const auto &profile :
         {trace::nasa7(), trace::hydro2d(), trace::espresso()})
        for (const MachineConfig &m :
             {baselineModel(), largeModel(), smallModel()})
            grid.push_back({m, profile, N});
    grid.insert(grid.begin() + WEDGED_JOB, {wedged(), trace::nasa7(), N});
    return grid;
}

/** One worker, a 2000-cycle stall watchdog, and no preflight, so the
 *  wedge reaches the simulator. */
SweepOptions
wedgedOptions()
{
    SweepOptions opts;
    opts.workers = 1;
    opts.preflight = false;
    opts.watchdog = WatchdogConfig{2000, 0};
    opts.retries = 1;
    return opts;
}

TEST(Lockstep, WedgedMemberFailsAloneAndRetriesAlone)
{
    const std::vector<SweepJob> grid = wedgedGrid();
    const std::size_t bad = WEDGED_JOB;
    SweepRunner runner(wedgedOptions());
    const auto outcomes = runner.runOutcomes(grid);

    EXPECT_FALSE(outcomes[bad].ok);
    EXPECT_EQ(outcomes[bad].code, SimErrorCode::NoForwardProgress);
    EXPECT_EQ(outcomes[bad].attempts, 2u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (i == bad)
            continue;
        ASSERT_TRUE(outcomes[i].ok) << i << ": " << outcomes[i].error;
        EXPECT_EQ(outcomes[i].attempts, 1u);
        EXPECT_EQ(runResultBytes(outcomes[i].result), soloBytes(grid[i]))
            << "job " << i;
    }
    const SweepReport &rep = runner.report();
    EXPECT_EQ(rep.failed_jobs, 1u);
    EXPECT_EQ(rep.retried_jobs, 1u);
    // Three units of one trace each, plus the wedge's solo retry,
    // which stops synthesizing soon after the machine stops reading.
    EXPECT_GT(rep.synthesized_instructions, 3 * N);
    EXPECT_LT(rep.synthesized_instructions, 4 * N);
}

TEST(Lockstep, FailFastFinishesTheFailingUnitAndSkipsTheRest)
{
    // Fail-fast over the same grid: the nasa7 unit runs to its end,
    // the wedge's watchdog error propagates without a retry, and the
    // two later units never start.
    const std::vector<SweepJob> grid = wedgedGrid();
    SweepRunner runner(wedgedOptions());
    EXPECT_THROW(runner.run(grid), WatchdogError);

    const SweepReport &rep = runner.report();
    EXPECT_EQ(rep.jobs, grid.size());
    EXPECT_EQ(rep.ok_jobs, 3u);
    EXPECT_EQ(rep.failed_jobs, 1u);
    EXPECT_EQ(rep.retried_jobs, 0u);
    EXPECT_EQ(rep.skipped_jobs, 6u);
    EXPECT_EQ(rep.jobs, rep.ok_jobs + rep.failed_jobs +
                            rep.timed_out_jobs + rep.skipped_jobs);
    EXPECT_EQ(rep.synthesized_instructions, N);
    EXPECT_EQ(rep.total_instructions, 3 * N);
}

TEST(Lockstep, DeadlineTimesOutOneMemberOnly)
{
    // The stall watchdog is off, so only the deadline ends the wedged
    // member. Each member's deadline counts its own stepping time, so
    // the siblings that wait on it do not expire. The deadline is
    // generous for sanitizer builds; only the wedge may reach it.
    constexpr Count SMALL = 5000;
    std::vector<SweepJob> grid;
    grid.push_back({baselineModel(), trace::nasa7(), SMALL});
    grid.push_back({wedged(), trace::nasa7(), SMALL});
    grid.push_back({largeModel(), trace::nasa7(), SMALL});
    grid.push_back({baselineModel(), trace::li(), SMALL});
    grid.push_back({baselineModel(), trace::gcc(), SMALL});

    SweepOptions opts;
    opts.workers = 1; // three traces, three units
    opts.preflight = false;
    opts.watchdog = WatchdogConfig{0, 0};
    opts.deadline_ms = 1500;
    opts.retries = 3; // must not apply to the deterministic hang
    SweepRunner runner(opts);
    const auto outcomes = runner.runOutcomes(grid);

    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].code, SimErrorCode::Timeout);
    EXPECT_EQ(outcomes[1].attempts, 1u);
    for (const std::size_t i : {0u, 2u, 3u, 4u}) {
        ASSERT_TRUE(outcomes[i].ok) << i << ": " << outcomes[i].error;
        EXPECT_EQ(runResultBytes(outcomes[i].result), soloBytes(grid[i]));
    }
    EXPECT_EQ(runner.report().timed_out_jobs, 1u);
    EXPECT_EQ(runner.report().ok_jobs, 4u);
    EXPECT_EQ(runner.report().synthesized_instructions, 3 * SMALL);
}

TEST(Lockstep, ResumeRegroupsWhatIsLeftOfAGroup)
{
    // Two traces x six machines; a journal holding half of the first
    // group stands in for a sweep killed mid-grid.
    std::vector<SweepJob> grid;
    for (const auto &profile : {trace::espresso(), trace::li()})
        for (const MachineConfig &model : studyModels())
            for (const unsigned issue : {1u, 2u})
                grid.push_back({model.withIssueWidth(issue), profile, N});
    const std::vector<std::string> solo = soloBytes(grid);

    const fs::path dir = fs::path(::testing::TempDir());
    const std::string full = (dir / "lockstep-full.ajrn").string();
    const std::string partial = (dir / "lockstep-partial.ajrn").string();
    fs::remove(full);
    fs::remove(partial);
    SweepOptions opts;
    opts.workers = 2;
    opts.journal = full;
    SweepRunner(opts).runOutcomes(grid);
    const LoadedJournal loaded = loadJournal(full);
    ASSERT_EQ(loaded.records.size(), grid.size());

    const std::set<std::size_t> kept = {0, 2, 4};
    {
        JournalWriter writer(partial, loaded.fingerprint, loaded.jobs);
        for (const JournalRecord &rec : loaded.records)
            if (kept.count(rec.job_index))
                writer.append(rec);
    }
    opts.journal = partial;
    opts.resume = true;
    SweepRunner resumer(opts);
    const auto outcomes = resumer.runOutcomes(grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].resumed, kept.count(i) == 1) << "job " << i;
        EXPECT_EQ(runResultBytes(outcomes[i].result), solo[i])
            << "job " << i;
    }
    const SweepReport &rep = resumer.report();
    EXPECT_EQ(rep.resumed_jobs, kept.size());
    // Nine pending jobs at two workers: six units over two traces.
    EXPECT_EQ(rep.synthesized_instructions, 6 * N);
    EXPECT_EQ(loadJournal(partial).records.size(), grid.size());
}

} // namespace
