/**
 * @file
 * Property tests for the simulation facade over the full
 * model x benchmark cross product.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/simulator.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

constexpr Count N = 60000;

TEST(Simulator, DeterministicRuns)
{
    const auto a = simulate(baselineModel(), trace::espresso(), N);
    const auto b = simulate(baselineModel(), trace::espresso(), N);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_DOUBLE_EQ(a.write_cache_hit_pct, b.write_cache_hit_pct);
}

TEST(Simulator, SuiteCoversAllBenchmarks)
{
    const auto suite = trace::integerSuite();
    const SuiteResult res{baselineModel(),
                          harness::SweepRunner().run(harness::suiteJobs(
                              baselineModel(), suite, 20000))};
    ASSERT_EQ(res.runs.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(res.runs[i].benchmark, suite[i].name);
    EXPECT_GT(res.avgCpi(), 0.5);
    const auto acc = res.cpiStats();
    EXPECT_LE(acc.min(), res.avgCpi());
    EXPECT_GE(acc.max(), res.avgCpi());
}

/** Invariants over every (model, benchmark) combination. */
class SimSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
  protected:
    MachineConfig
    machine() const
    {
        const auto name = std::get<0>(GetParam());
        for (auto &m : studyModels())
            if (m.name == name)
                return m;
        ADD_FAILURE() << "unknown model " << name;
        return baselineModel();
    }

    trace::WorkloadProfile
    benchmark() const
    {
        return trace::profileByName(std::get<1>(GetParam()));
    }
};

TEST_P(SimSweep, AccountingIdentity)
{
    const auto r = simulate(machine(), benchmark(), N);
    Cycle stall_sum = 0;
    for (const auto s : r.stalls)
        stall_sum += s;
    EXPECT_EQ(r.cycles, r.issuing_cycles + stall_sum + r.tail_cycles);
}

TEST_P(SimSweep, CpiWithinPhysicalBounds)
{
    const auto r = simulate(machine(), benchmark(), N);
    EXPECT_EQ(r.instructions, N);
    EXPECT_GE(r.cpi(), 0.5) << "cannot beat dual issue";
    EXPECT_LE(r.cpi(), 20.0) << "implausibly slow";
}

TEST_P(SimSweep, RatesAreValidPercentages)
{
    const auto r = simulate(machine(), benchmark(), N);
    for (double pct :
         {r.icache_hit_pct, r.dcache_hit_pct, r.iprefetch_hit_pct,
          r.dprefetch_hit_pct, r.write_cache_hit_pct}) {
        EXPECT_GE(pct, 0.0);
        EXPECT_LE(pct, 100.0);
    }
    EXPECT_LE(r.store_transactions, r.stores)
        << "coalescing cannot add transactions";
}

TEST_P(SimSweep, CachesActuallyWork)
{
    const auto r = simulate(machine(), benchmark(), N);
    EXPECT_GT(r.icache_hit_pct, 80.0);
    EXPECT_GT(r.dcache_hit_pct, 60.0);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsTimesBenchmarks, SimSweep,
    ::testing::Combine(
        ::testing::Values("small", "baseline", "large"),
        ::testing::Values("espresso", "li", "eqntott", "compress",
                          "sc", "gcc", "nasa7", "ora", "spice2g6")));

} // namespace
