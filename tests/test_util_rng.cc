/**
 * @file
 * Unit tests for the deterministic random number generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hh"

namespace
{

using aurora::Rng;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysBelowBound)
{
    Rng rng(7);
    for (std::uint64_t bound :
         {1ull, 2ull, 10ull, 1000ull, 1ull << 20}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.uniform(bound), bound);
    }
}

TEST(Rng, UniformCoversSmallRange)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.uniform(4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniformReal();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-1.0));
        EXPECT_TRUE(rng.chance(2.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(19);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(23);
    const double p = 0.2;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    EXPECT_NEAR(sum / n, 1.0 / p, 0.2);
}

TEST(Rng, GeometricAlwaysAtLeastOne)
{
    Rng rng(29);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(0.9), 1u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, WeightedRespectsZeroWeights)
{
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
        const auto pick = rng.weighted({0.0, 1.0, 0.0});
        EXPECT_EQ(pick, 1u);
    }
}

TEST(Rng, WeightedApproximatesRatios)
{
    Rng rng(37);
    int counts[3] = {0, 0, 0};
    const int n = 30000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weighted({1.0, 2.0, 1.0})];
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.5, 0.02);
}

TEST(Rng, ZipfStaysInRange)
{
    Rng rng(41);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(rng.zipf(100, 1.1), 100u);
}

TEST(Rng, ZipfSkewsTowardZero)
{
    Rng rng(43);
    int low = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        low += rng.zipf(1000, 1.2) < 100 ? 1 : 0;
    // With s=1.2 the first decile should take well over half the mass.
    EXPECT_GT(low, n / 2);
}

TEST(Rng, ZipfZeroExponentIsUniform)
{
    Rng rng(47);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.zipf(1000, 0.0));
    EXPECT_NEAR(sum / n, 500.0, 25.0);
}

/**
 * The first draws of one seed, recorded as literals: any change to a
 * draw, its order, or its floating-point steps shows here before it
 * shows as a golden-stats diff three layers up.
 */
TEST(Rng, GoldenDraws)
{
    constexpr std::uint64_t SEED = 20240601;
    const auto draws = [&](auto draw) {
        Rng rng(SEED);
        std::vector<decltype(draw(rng))> out;
        for (int i = 0; i < 8; ++i)
            out.push_back(draw(rng));
        return out;
    };
    using U = std::vector<std::uint64_t>;
    EXPECT_EQ(draws([](Rng &r) { return r.next(); }),
              (U{0x59761096949c683dull, 0x7e436068556fab29ull,
                 0xe6a51fbfd60edd06ull, 0x938809d8706c1c30ull,
                 0xb143626883885b9dull, 0x57712c108ea92b14ull,
                 0x11788409a79457d5ull, 0x6d337f338123eabbull}));
    EXPECT_EQ(draws([](Rng &r) { return r.uniform(25); }),
              (U{8, 12, 22, 14, 17, 8, 1, 10}));
    EXPECT_EQ(draws([](Rng &r) { return r.uniform(1 << 20); }),
              (U{366433, 517174, 944721, 604288, 726070, 358162, 71560,
                 447287}));
    EXPECT_EQ(draws([](Rng &r) { return r.uniformReal(); }),
              (std::vector<double>{
                  0x1.65d8425a5271ap-2, 0x1.f90d81a155beap-2,
                  0x1.cd4a3f7fac1dbp-1, 0x1.271013b0e0d83p-1,
                  0x1.6286c4d10710bp-1, 0x1.5dc4b0423aa4ap-2,
                  0x1.1788409a7945p-4, 0x1.b4cdfcce048fap-2}));
    EXPECT_EQ(draws([](Rng &r) { return r.chance(0.3); }),
              (std::vector<bool>{false, false, false, false, false,
                                 false, true, false}));
    EXPECT_EQ(draws([](Rng &r) { return r.geometric(1.0 / 16); }),
              (U{7, 11, 36, 14, 19, 7, 2, 9}));
    EXPECT_EQ(draws([](Rng &r) { return r.zipf(1024, 1.05); }),
              (U{7, 21, 457, 39, 92, 7, 0, 13}));
    EXPECT_EQ(draws([](Rng &r) { return r.zipf(1024, 1.0); }),
              (U{10, 29, 514, 53, 120, 9, 0, 18}));
    EXPECT_EQ(draws([](Rng &r) { return r.zipf(1024, 0.0); }),
              (U{357, 505, 922, 590, 709, 349, 69, 436}));
    EXPECT_EQ(draws([](Rng &r) {
                  return r.weighted({0.5, 2.0, 1.0, 0.25});
              }),
              (std::vector<std::size_t>{1, 1, 2, 1, 2, 1, 0, 1}));
}

/** Determinism must hold for every seed, not just a lucky one. */
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RngSeedSweep, DeterministicAcrossInstances)
{
    Rng a(GetParam()), b(GetParam());
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.uniform(1000), b.uniform(1000));
        EXPECT_EQ(a.geometric(0.3), b.geometric(0.3));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull,
                                           0xdeadbeefull,
                                           ~0ull));

} // namespace
