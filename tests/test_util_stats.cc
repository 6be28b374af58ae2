/**
 * @file
 * Unit tests for the statistics accumulators.
 */

#include <gtest/gtest.h>

#include "util/stats.hh"

namespace
{

using aurora::Accumulator;
using aurora::Histogram;
using aurora::Ratio;

TEST(Accumulator, EmptyIsSafe)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
}

TEST(Accumulator, MeanMinMax)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 6.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 6.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 12.0);
}

TEST(Accumulator, VarianceMatchesDefinition)
{
    Accumulator acc;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        acc.add(x);
    // Population variance of {1,2,3,4} is 1.25.
    EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
    EXPECT_NEAR(acc.stddev(), 1.1180339887, 1e-9);
}

TEST(Accumulator, SingleSampleVarianceZero)
{
    Accumulator acc;
    acc.add(5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
}

TEST(Accumulator, ResetClearsEverything)
{
    Accumulator acc;
    acc.add(10.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(Ratio, BasicRates)
{
    Ratio r;
    r.record(true);
    r.record(true);
    r.record(false);
    EXPECT_EQ(r.hits(), 2u);
    EXPECT_EQ(r.misses(), 1u);
    EXPECT_EQ(r.total(), 3u);
    EXPECT_NEAR(r.rate(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(r.percent(), 66.666, 0.01);
}

TEST(Ratio, EmptyRateIsZero)
{
    Ratio r;
    EXPECT_DOUBLE_EQ(r.rate(), 0.0);
    EXPECT_DOUBLE_EQ(r.percent(), 0.0);
}

TEST(Ratio, RecordMany)
{
    Ratio r;
    r.recordMany(30, 100);
    EXPECT_EQ(r.hits(), 30u);
    EXPECT_EQ(r.total(), 100u);
    EXPECT_DOUBLE_EQ(r.percent(), 30.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4);
    for (std::uint64_t x : {0u, 1u, 1u, 3u, 9u, 100u})
        h.add(x);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_NEAR(h.mean(), 114.0 / 6.0, 1e-12);
}

TEST(Histogram, BulkAddEqualsRepeatedAdds)
{
    Histogram bulk(4);
    Histogram single(4);
    // (sample, times) pairs, including overflow samples.
    const std::pair<std::uint64_t, aurora::Count> runs[] = {
        {2, 7}, {0, 3}, {9, 5}, {3, 1}, {1, 12}, {100, 2}};
    for (const auto &[x, times] : runs) {
        bulk.add(x, times);
        for (aurora::Count i = 0; i < times; ++i)
            single.add(x);
    }
    EXPECT_EQ(bulk.count(), single.count());
    EXPECT_EQ(bulk.sum(), single.sum());
    EXPECT_DOUBLE_EQ(bulk.mean(), single.mean());
    EXPECT_EQ(bulk.maxSample(), single.maxSample());
    EXPECT_EQ(bulk.overflow(), single.overflow());
    for (std::size_t i = 0; i < bulk.numBuckets(); ++i)
        EXPECT_EQ(bulk.bucket(i), single.bucket(i)) << "bucket " << i;
    for (int pct = 0; pct <= 100; ++pct)
        EXPECT_EQ(bulk.percentile(pct / 100.0),
                  single.percentile(pct / 100.0))
            << "p" << pct;
}

TEST(Histogram, BulkAddOfZeroTimesIsANoOp)
{
    Histogram h(4);
    h.add(1);
    h.add(200, 0);
    h.add(2, 0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 1u);
    EXPECT_EQ(h.maxSample(), 1u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.percentile(1.0), 1u);
}

TEST(FormatFixed, Decimals)
{
    EXPECT_EQ(aurora::formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(aurora::formatFixed(2.0, 0), "2");
    EXPECT_EQ(aurora::formatFixed(-1.5, 1), "-1.5");
}

} // namespace
