/**
 * @file
 * parallelFor tests: every index runs exactly once on success, and
 * the fail-fast path rethrows the first error, in both the serial and
 * the pooled executor. The sweep report's balance after an aborted
 * run (jobs == ok + failed + timed_out + skipped) is checked where it
 * is kept, in test_harness_outcomes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/parallel.hh"

namespace
{

using aurora::parallelFor;

TEST(ParallelFor, SerialRunsEveryIndexInOrder)
{
    std::vector<std::size_t> order;
    parallelFor(7, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ParallelFor, SerialFailureStopsAtTheThrowingIndex)
{
    std::atomic<int> calls{0};
    EXPECT_THROW(parallelFor(10, 1,
                             [&](std::size_t i) {
                                 calls.fetch_add(1);
                                 if (i == 3)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    EXPECT_EQ(calls.load(), 4);
}

TEST(ParallelFor, PooledRunsEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(100);
    parallelFor(100, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PooledFailureRethrowsAcrossWorkerCounts)
{
    for (unsigned workers : {2u, 4u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::atomic<int> calls{0};
        EXPECT_THROW(parallelFor(64, workers,
                                 [&](std::size_t i) {
                                     calls.fetch_add(1);
                                     if (i == 5)
                                         throw std::runtime_error("boom");
                                 }),
                     std::runtime_error);
        // Which indices ran before the abort is scheduling-dependent;
        // the throwing one always did.
        EXPECT_GE(calls.load(), 6);
        EXPECT_LE(calls.load(), 64);
    }
}

TEST(ParallelFor, EveryBodyFailingStillRethrowsOne)
{
    EXPECT_THROW(parallelFor(8, 4,
                             [&](std::size_t) {
                                 throw std::runtime_error("all broken");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, EmptyRangeIsHarmless)
{
    parallelFor(0, 4, [&](std::size_t) { FAIL(); });
}

} // namespace
