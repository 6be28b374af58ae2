/**
 * @file
 * Shared-trace lockstep sweeps. SweepRunner runs the pending grid jobs
 * that replay one trace as units over a single synthesized stream
 * (core::LockstepUnit), which idle workers split once no unit is left
 * to start. Every result must equal a per-job core::simulate() byte
 * for byte at any worker count and under any split, a failing member
 * must fail alone, and a journal resume regroups only the jobs that
 * are left.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"
#include "test_tmp.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using namespace aurora::harness;
namespace fs = std::filesystem;
using util::SimErrorCode;

constexpr Count N = 20'000;

/** Figure 4's machines: study models x issue {1,2} x latency {17,35}. */
std::vector<MachineConfig>
fig4Machines()
{
    std::vector<MachineConfig> machines;
    for (const MachineConfig &model : studyModels())
        for (const unsigned issue : {1u, 2u})
            for (const Cycle latency : {17u, 35u})
                machines.push_back(
                    model.withIssueWidth(issue).withLatency(latency));
    return machines;
}

/** Figure 4: fig4Machines() x int suite. */
std::vector<SweepJob>
fig4Grid()
{
    std::vector<SweepJob> grid;
    for (const MachineConfig &machine : fig4Machines())
        for (const auto &profile : trace::integerSuite())
            grid.push_back({machine, profile, N});
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

/**
 * Synthesis of @p groups traces of N instructions. At one worker each
 * group runs as one unit over one synthesis. At more, when an idle
 * worker splits a running unit depends on timing: each split-off unit
 * synthesizes on from its split point, at most N more per split.
 */
void
expectSynthesized(const SweepReport &rep, unsigned workers, Count groups)
{
    if (workers == 1) {
        EXPECT_EQ(rep.splits, 0u);
        EXPECT_EQ(rep.synthesized_instructions, groups * N);
    } else {
        EXPECT_GE(rep.synthesized_instructions, groups * N);
        EXPECT_LE(rep.synthesized_instructions, (groups + rep.splits) * N)
            << rep.splits << " splits at " << workers << " workers";
    }
    EXPECT_NE(rep.summary().find(std::to_string(
                  rep.synthesized_instructions) + " synthesized"),
              std::string::npos)
        << rep.summary();
}

TEST(Lockstep, Fig4GridMatchesPerJobSimulate)
{
    const std::vector<SweepJob> grid = fig4Grid();
    const std::vector<std::string> solo = soloBytes(grid);
    // Six traces, each replayed by twelve machines: six units of
    // twelve, which idle workers split once none is left to start.
    for (const unsigned workers : {1u, 2u, 3u, 4u, 8u}) {
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
        expectSynthesized(rep, workers, 6);

        // The fail-fast entry point groups the same way.
        SweepRunner fast(opts);
        const auto results = fast.run(grid);
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(runResultBytes(results[i]), solo[i]) << "job " << i;
        expectSynthesized(fast.report(), workers, 6);
    }
}

TEST(Lockstep, SwarmPlanStillCutsFig4IntoTwelveUnitsOfSix)
{
    // Nothing is stolen across processes, so the swarm keeps its cut:
    // min(72, 3 x 4 shards) units, two per trace. The in-process pool
    // plans at one worker: one unit per trace.
    const std::vector<SweepJob> grid = fig4Grid();
    std::vector<std::size_t> all(grid.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const std::vector<SweepRunner::Unit> cut =
        planUnits(grid, all, std::nullopt, 4);
    ASSERT_EQ(cut.size(), 12u);
    for (const SweepRunner::Unit &unit : cut)
        EXPECT_EQ(unit.size(), 6u);
    const std::vector<SweepRunner::Unit> whole =
        planUnits(grid, all, std::nullopt, 1);
    ASSERT_EQ(whole.size(), 6u);
    for (const SweepRunner::Unit &unit : whole)
        EXPECT_EQ(unit.size(), 12u);
}

TEST(Lockstep, UnevenGroupsAtEightWorkersRunEveryJobOnce)
{
    // Groups of 12, 7, 5, 2 and 1 jobs on eight workers: the big
    // groups are split, some more than once, while the small ones
    // finish. Every job must be completed, journaled and reported
    // exactly once, with its solo result, on every repetition.
    constexpr Count SHORT = 10000;
    const std::vector<MachineConfig> machines = fig4Machines();
    std::vector<SweepJob> grid;
    const std::pair<trace::WorkloadProfile, std::size_t> groups[] = {
        {trace::li(), 12}, {trace::nasa7(), 7}, {trace::gcc(), 5},
        {trace::espresso(), 2}, {trace::compress(), 1}};
    for (const auto &[profile, count] : groups)
        for (std::size_t k = 0; k < count; ++k)
            grid.push_back({machines[k], profile, SHORT});
    const std::vector<std::string> solo = soloBytes(grid);
    const std::string journal = test::tempPath("uneven.ajrn");

    std::vector<std::size_t> every(grid.size());
    std::iota(every.begin(), every.end(), std::size_t{1});
    for (int repetition = 0; repetition < 8; ++repetition) {
        SCOPED_TRACE("repetition " + std::to_string(repetition));
        SweepOptions opts;
        opts.workers = 8;
        opts.journal = journal;
        opts.progress_every = 1;
        std::vector<std::size_t> done;
        opts.on_progress = [&done](const SweepProgress &p) {
            done.push_back(p.done);
        };
        SweepRunner runner(opts);
        const auto outcomes = runner.runOutcomes(grid);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
            EXPECT_EQ(outcomes[i].attempts, 1u);
            EXPECT_EQ(runResultBytes(outcomes[i].result), solo[i])
                << "job " << i;
        }
        EXPECT_EQ(done, every);

        const LoadedJournal loaded = loadJournal(journal);
        std::multiset<std::size_t> journaled;
        for (const JournalRecord &rec : loaded.records)
            journaled.insert(rec.job_index);
        EXPECT_EQ(journaled.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(journaled.count(i), 1u) << "job " << i;

        const SweepReport &rep = runner.report();
        EXPECT_EQ(rep.ok_jobs, grid.size());
        EXPECT_EQ(rep.total_instructions, grid.size() * SHORT);
        EXPECT_GE(rep.synthesized_instructions, 5 * SHORT);
        EXPECT_LE(rep.synthesized_instructions, (5 + rep.splits) * SHORT);
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

    const std::string full = test::tempPath("lockstep-full.ajrn");
    const std::string partial = test::tempPath("lockstep-partial.ajrn");
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
    // Nine pending jobs over two traces: two units, split by timing.
    expectSynthesized(rep, opts.workers, 2);
    EXPECT_EQ(loadJournal(partial).records.size(), grid.size());
}

} // namespace
