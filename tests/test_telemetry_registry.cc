/**
 * @file
 * Registry tests: find-or-create identity, registration order,
 * lookup without creation, and counter/histogram semantics — the
 * properties the exporters rely on for a stable metric schema.
 */

#include <gtest/gtest.h>

#include "telemetry/registry.hh"

namespace
{

using namespace aurora;
using namespace aurora::telemetry;

TEST(Counter, AddAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Registry, CounterFindOrCreateReturnsSameObject)
{
    Registry reg;
    Counter &a = reg.counter("sim.cycles", "total cycles");
    a.add(7);
    // Second registration under the same name: same counter, the
    // original description wins.
    Counter &b = reg.counter("sim.cycles", "ignored");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 7u);
    ASSERT_EQ(reg.counters().size(), 1u);
    EXPECT_EQ(reg.counters().front().description, "total cycles");
}

TEST(Registry, HistogramFindOrCreateReturnsSameObject)
{
    Registry reg;
    Histogram &a = reg.histogram("occupancy.rob", "per-cycle", 65);
    a.add(3);
    Histogram &b = reg.histogram("occupancy.rob", "ignored", 65);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.count(), 1u);
    ASSERT_EQ(reg.histograms().size(), 1u);
    EXPECT_EQ(reg.histograms().front().description, "per-cycle");
}

TEST(Registry, RegistrationOrderIsPreserved)
{
    Registry reg;
    const char *names[] = {"zeta", "alpha", "mid", "alpha2"};
    for (const char *n : names)
        reg.counter(n, "");
    ASSERT_EQ(reg.counters().size(), 4u);
    std::size_t i = 0;
    for (const auto &entry : reg.counters())
        EXPECT_EQ(entry.name, names[i++]);
}

TEST(Registry, AddressesStayStableAcrossLaterRegistrations)
{
    // A sampler holds pointers to its metrics while the catalog keeps
    // growing; the deque storage must never move them.
    Registry reg;
    Counter &first = reg.counter("first", "");
    Histogram &h = reg.histogram("h", "", 8);
    for (int i = 0; i < 100; ++i) {
        const std::string n = std::to_string(i);
        reg.counter(std::string("c").append(n), "");
        reg.histogram(std::string("g").append(n), "", 4);
    }
    first.add(5);
    h.add(2);
    EXPECT_EQ(reg.findCounter("first")->value(), 5u);
    EXPECT_EQ(reg.findHistogram("h")->count(), 1u);
}

TEST(Registry, FindDoesNotCreate)
{
    Registry reg;
    EXPECT_EQ(reg.findCounter("absent"), nullptr);
    EXPECT_EQ(reg.findHistogram("absent"), nullptr);
    EXPECT_TRUE(reg.counters().empty());
    EXPECT_TRUE(reg.histograms().empty());

    reg.counter("present", "");
    EXPECT_NE(reg.findCounter("present"), nullptr);
    EXPECT_EQ(reg.findHistogram("present"), nullptr);
}

TEST(Registry, HistogramBucketAccounting)
{
    Registry reg;
    Histogram &h = reg.histogram("lat", "", 4);
    // Samples 0..3 land in buckets; larger ones overflow.
    for (std::uint64_t v : {0, 1, 1, 3, 7, 9})
        h.add(v);
    EXPECT_EQ(h.count(), 6u);
    Count in_buckets = 0;
    for (std::size_t b = 0; b < h.numBuckets(); ++b)
        in_buckets += h.bucket(b);
    EXPECT_EQ(in_buckets + h.overflow(), h.count());
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.maxSample(), 9u);
}

} // namespace
