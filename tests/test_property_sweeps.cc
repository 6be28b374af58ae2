/**
 * @file
 * Property sweeps: resource monotonicity and seed robustness.
 *
 * The study's entire argument rests on resources having predictable
 * marginal value. These tests sweep each resource axis and assert
 * monotonic (or near-monotonic) behaviour of the relevant metric,
 * and check that the headline orderings are not artifacts of one
 * random seed.
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

constexpr Count N = 50000;

/** Suite-average CPI for quick sweeps (two benchmarks suffice). */
double
cpiOf(const MachineConfig &m)
{
    return SuiteResult{m, harness::SweepRunner().run(harness::suiteJobs(
                              m, {trace::espresso(), trace::gcc()}, N))}
        .avgCpi();
}

TEST(Sweeps, DcacheHitRateRisesWithSize)
{
    double prev = 0.0;
    for (std::uint32_t size = 8 * 1024; size <= 128 * 1024;
         size *= 2) {
        auto m = baselineModel();
        m.lsu.dcache_bytes = size;
        const auto r = simulate(m, trace::espresso(), N);
        EXPECT_GE(r.dcache_hit_pct + 0.5, prev)
            << size << " bytes";
        prev = r.dcache_hit_pct;
    }
}

TEST(Sweeps, IcacheHitRateRisesWithSize)
{
    double prev = 0.0;
    for (std::uint32_t size = 512; size <= 8 * 1024; size *= 2) {
        auto m = baselineModel();
        m.ifu.icache_bytes = size;
        const auto r = simulate(m, trace::gcc(), N);
        EXPECT_GE(r.icache_hit_pct + 0.3, prev) << size << " bytes";
        prev = r.icache_hit_pct;
    }
}

TEST(Sweeps, CpiFallsWithDcacheSize)
{
    double prev = 1e9;
    for (std::uint32_t size = 8 * 1024; size <= 128 * 1024;
         size *= 2) {
        auto m = baselineModel();
        m.lsu.dcache_bytes = size;
        const double cpi = cpiOf(m);
        EXPECT_LE(cpi, prev * 1.01) << size << " bytes";
        prev = cpi;
    }
}

TEST(Sweeps, CpiNeverRisesWithMshrs)
{
    double prev = 1e9;
    for (unsigned k = 1; k <= 8; k *= 2) {
        const double cpi = cpiOf(baselineModel().withMshrs(k));
        EXPECT_LE(cpi, prev * 1.005) << k << " MSHRs";
        prev = cpi;
    }
}

TEST(Sweeps, CpiRisesMonotonicallyWithLatency)
{
    double prev = 0.0;
    for (Cycle lat : {Cycle{5}, Cycle{17}, Cycle{35}, Cycle{70}}) {
        const double cpi = cpiOf(baselineModel().withLatency(lat));
        EXPECT_GT(cpi, prev) << lat << " cycles";
        prev = cpi;
    }
}

TEST(Sweeps, WriteCacheHitRisesWithLines)
{
    double prev = 0.0;
    for (unsigned lines : {1u, 2u, 4u, 8u, 16u}) {
        auto m = baselineModel();
        m.write_cache.lines = lines;
        const auto r = simulate(m, trace::gcc(), N);
        EXPECT_GE(r.write_cache_hit_pct + 1.0, prev)
            << lines << " lines";
        prev = r.write_cache_hit_pct;
    }
}

TEST(Sweeps, StoreTrafficFallsWithWriteCacheLines)
{
    double prev = 1e9;
    for (unsigned lines : {1u, 2u, 4u, 8u, 16u}) {
        auto m = baselineModel();
        m.write_cache.lines = lines;
        const auto r = simulate(m, trace::gcc(), N);
        EXPECT_LE(r.storeTrafficPct(), prev + 1.0)
            << lines << " lines";
        prev = r.storeTrafficPct();
    }
}

TEST(Sweeps, FpInstQueueNeverHurts)
{
    double prev = 1e9;
    for (unsigned q = 1; q <= 8; ++q) {
        auto m = baselineModel();
        m.fpu.inst_queue = q;
        const double cpi = simulate(m, trace::nasa7(), N).cpi();
        EXPECT_LE(cpi, prev * 1.005) << q << " entries";
        prev = cpi;
    }
}

TEST(Sweeps, FpUnitLatencyMonotonicallyHurts)
{
    double prev = 0.0;
    for (Cycle lat = 1; lat <= 5; ++lat) {
        auto m = baselineModel();
        m.fpu.add.latency = lat;
        const double cpi = simulate(m, trace::hydro2d(), N).cpi();
        EXPECT_GE(cpi * 1.002, prev) << "add latency " << lat;
        prev = cpi;
    }
}

/** Headline orderings must hold for several generator seeds. */
class SeedRobustness : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    trace::WorkloadProfile
    reseeded(trace::WorkloadProfile p) const
    {
        p.seed ^= GetParam();
        return p;
    }
};

TEST_P(SeedRobustness, ModelOrderingHolds)
{
    const auto p = reseeded(trace::espresso());
    const double s = simulate(smallModel(), p, N).cpi();
    const double b = simulate(baselineModel(), p, N).cpi();
    const double l = simulate(largeModel(), p, N).cpi();
    EXPECT_GT(s, b);
    EXPECT_GT(b, l);
}

TEST_P(SeedRobustness, DualIssueStillHelps)
{
    const auto p = reseeded(trace::compress());
    const double dual = simulate(baselineModel(), p, N).cpi();
    const double single =
        simulate(baselineModel().withIssueWidth(1), p, N).cpi();
    EXPECT_GT(single, dual);
}

TEST_P(SeedRobustness, FpuPolicyOrderingHolds)
{
    const auto p = reseeded(trace::su2cor());
    auto in_order = baselineModel();
    in_order.fpu.policy = fpu::IssuePolicy::InOrderComplete;
    auto dual = baselineModel();
    const double io = simulate(in_order, p, N).cpi();
    const double du = simulate(dual, p, N).cpi();
    EXPECT_GT(io, du);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustness,
                         ::testing::Values(0x1111ull, 0x2222ull,
                                           0x3333ull));

} // namespace
