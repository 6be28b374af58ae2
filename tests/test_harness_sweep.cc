/**
 * @file
 * Determinism and robustness property tests for the parallel sweep
 * engine: identical results at any worker count, submission-order
 * results, seed derivation, empty/single grids, and exception
 * propagation without deadlock.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using namespace aurora::harness;

constexpr Count N = 20000;

/** The 12-job grid of the issue: 3 models x 4 benchmarks. */
std::vector<SweepJob>
twelveJobGrid()
{
    std::vector<SweepJob> grid;
    for (const auto &m : studyModels())
        for (const auto &name :
             {"espresso", "compress", "li", "nasa7"})
            grid.push_back({m, trace::profileByName(name), N});
    return grid;
}

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
    EXPECT_EQ(a.store_transactions, b.store_transactions);
    EXPECT_EQ(a.fp_dispatched, b.fp_dispatched);
    EXPECT_EQ(a.issue_width_cycles, b.issue_width_cycles);
    EXPECT_EQ(a.icache_hit_pct, b.icache_hit_pct);
    EXPECT_EQ(a.dcache_hit_pct, b.dcache_hit_pct);
    EXPECT_EQ(a.iprefetch_hit_pct, b.iprefetch_hit_pct);
    EXPECT_EQ(a.dprefetch_hit_pct, b.dprefetch_hit_pct);
    EXPECT_EQ(a.write_cache_hit_pct, b.write_cache_hit_pct);
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
    for (std::size_t c = 0; c < NUM_STALL_CAUSES; ++c)
        EXPECT_EQ(a.stallCpi(static_cast<StallCause>(c)),
                  b.stallCpi(static_cast<StallCause>(c)));
}

TEST(SweepRunner, DeterministicAtAnyWorkerCount)
{
    const auto grid = twelveJobGrid();
    std::vector<std::vector<RunResult>> by_workers;
    for (unsigned workers : {1u, 2u, 8u}) {
        SweepOptions opts;
        opts.workers = workers;
        SweepRunner runner(opts);
        by_workers.push_back(runner.run(grid));
        ASSERT_EQ(by_workers.back().size(), grid.size());
    }
    for (std::size_t w = 1; w < by_workers.size(); ++w)
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE("workers variant " + std::to_string(w) +
                         " job " + std::to_string(i));
            expectRunEq(by_workers[0][i], by_workers[w][i]);
        }
}

TEST(SweepRunner, DeterministicWithDerivedSeeds)
{
    const auto grid = twelveJobGrid();
    std::vector<std::vector<RunResult>> by_workers;
    for (unsigned workers : {1u, 8u}) {
        SweepOptions opts;
        opts.workers = workers;
        opts.base_seed = 0xfeedface;
        SweepRunner runner(opts);
        by_workers.push_back(runner.run(grid));
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectRunEq(by_workers[0][i], by_workers[1][i]);
    }

    // A base seed rewrites the workload seeds, so at least one run
    // must differ from the profile-seeded sweep.
    SweepRunner plain;
    const auto unseeded = plain.run(grid);
    bool any_difference = false;
    for (std::size_t i = 0; i < grid.size(); ++i)
        any_difference |=
            unseeded[i].cycles != by_workers[0][i].cycles;
    EXPECT_TRUE(any_difference);
}

TEST(SweepRunner, ResultsInSubmissionOrder)
{
    const auto grid = twelveJobGrid();
    SweepOptions opts;
    opts.workers = 8;
    SweepRunner runner(opts);
    const auto results = runner.run(grid);
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(results[i].benchmark, grid[i].profile.name);
        EXPECT_EQ(results[i].model, grid[i].machine.name);
    }
}

TEST(SweepRunner, EmptyGrid)
{
    SweepRunner runner;
    const auto results = runner.run({});
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(runner.report().jobs, 0u);
    EXPECT_EQ(runner.report().total_instructions, 0u);
}

TEST(SweepRunner, SingleJob)
{
    SweepOptions opts;
    opts.workers = 8; // more workers than jobs must be harmless
    SweepRunner runner(opts);
    const auto results = runner.run(
        {{baselineModel(), trace::espresso(), N}});
    ASSERT_EQ(results.size(), 1u);
    expectRunEq(results[0],
                simulate(baselineModel(), trace::espresso(), N));
}

TEST(SweepRunner, ThrowingJobPropagatesWithoutDeadlock)
{
    for (unsigned workers : {1u, 2u, 8u}) {
        SweepOptions opts;
        opts.workers = workers;
        SweepRunner runner(opts);
        std::vector<std::function<RunResult()>> tasks;
        for (int i = 0; i < 4; ++i)
            tasks.push_back([]() {
                return simulate(baselineModel(), trace::espresso(),
                                2000);
            });
        tasks.push_back([]() -> RunResult {
            throw std::runtime_error("boom");
        });
        for (int i = 0; i < 3; ++i)
            tasks.push_back([]() {
                return simulate(baselineModel(), trace::li(), 2000);
            });
        EXPECT_THROW(runner.runTasks(tasks), std::runtime_error)
            << "workers=" << workers;
    }
}

TEST(SweepRunner, ReportAccounting)
{
    SweepOptions opts;
    opts.workers = 2;
    SweepRunner runner(opts);
    const auto grid = twelveJobGrid();
    runner.run(grid);
    const auto &rep = runner.report();
    EXPECT_EQ(rep.jobs, grid.size());
    EXPECT_EQ(rep.total_instructions, Count{12} * N);
    EXPECT_EQ(rep.job_seconds.size(), grid.size());
    EXPECT_GT(rep.wall_seconds, 0.0);
    EXPECT_GE(rep.busy_seconds, 0.0);
    EXPECT_GT(rep.instsPerSecond(), 0.0);
    EXPECT_FALSE(rep.summary().empty());

    // The report accumulates across run() calls.
    runner.run({{baselineModel(), trace::espresso(), N}});
    EXPECT_EQ(runner.report().jobs, grid.size() + 1);
    EXPECT_EQ(runner.report().total_instructions,
              Count{13} * N);
}

TEST(SweepRunner, FigureGridMatchesSerialSimulate)
{
    // A Figure 9(d)-shaped grid: FP add latency 1..4 x SPECfp92 in
    // one run() call, as the bench drivers submit their figures.
    const auto suite = trace::floatSuite();
    std::vector<SweepJob> grid;
    for (Cycle lat = 1; lat <= 4; ++lat) {
        auto m = baselineModel();
        m.fpu.add.latency = lat;
        for (auto &job : suiteJobs(m, suite, N))
            grid.push_back(std::move(job));
    }
    // One unit per distinct trace; idle workers split them at the end.
    SweepOptions opts;
    opts.workers = 3;
    SweepRunner runner(opts);
    const auto results = runner.run(grid);

    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectRunEq(results[i], core::simulate(grid[i].machine,
                                               grid[i].profile, N));
    }
    EXPECT_EQ(runner.report().total_instructions, grid.size() * N);
    const SweepReport &rep = runner.report();
    EXPECT_GE(rep.synthesized_instructions, suite.size() * N);
    EXPECT_LE(rep.synthesized_instructions, (suite.size() + rep.splits) * N);
}

TEST(SeedDerivation, StableAndDiscriminating)
{
    const auto h_base = machineHash(baselineModel());
    const auto h_small = machineHash(smallModel());
    EXPECT_EQ(h_base, machineHash(baselineModel()));
    EXPECT_NE(h_base, h_small);
    // Any knob change must alter the digest.
    EXPECT_NE(h_base, machineHash(baselineModel().withMshrs(4)));
    EXPECT_NE(h_base,
              machineHash(baselineModel().withIssueWidth(1)));

    const auto s = deriveJobSeed(1, h_base, "espresso");
    EXPECT_EQ(s, deriveJobSeed(1, h_base, "espresso"));
    EXPECT_NE(s, deriveJobSeed(2, h_base, "espresso"));
    EXPECT_NE(s, deriveJobSeed(1, h_small, "espresso"));
    EXPECT_NE(s, deriveJobSeed(1, h_base, "li"));
    EXPECT_NE(deriveJobSeed(0, 0, ""), 0u);
}

} // namespace
