/**
 * @file
 * Unit tests for the fixed-capacity FIFO.
 */

#include <gtest/gtest.h>

#include <deque>

#include "util/bounded_queue.hh"
#include "util/rng.hh"

namespace
{

using aurora::BoundedQueue;

TEST(BoundedQueue, StartsEmpty)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 4u);
    EXPECT_EQ(q.space(), 4u);
}

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(3);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, WrapAroundKeepsOrder)
{
    BoundedQueue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        q.push(round * 2);
        q.push(round * 2 + 1);
        EXPECT_EQ(q.pop(), round * 2);
        EXPECT_EQ(q.pop(), round * 2 + 1);
    }
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, AtIndexesFromFront)
{
    BoundedQueue<int> q(4);
    q.push(10);
    q.push(20);
    q.push(30);
    EXPECT_EQ(q.at(0), 10);
    EXPECT_EQ(q.at(1), 20);
    EXPECT_EQ(q.at(2), 30);
    q.pop();
    EXPECT_EQ(q.at(0), 20);
    EXPECT_EQ(q.at(1), 30);
}

TEST(BoundedQueue, FrontPeeksWithoutConsuming)
{
    BoundedQueue<int> q(2);
    q.push(7);
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueue, ClearEmpties)
{
    BoundedQueue<int> q(2);
    q.push(1);
    q.push(2);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push(9);
    EXPECT_EQ(q.front(), 9);
}

/**
 * A seeded random push/pop walk against a std::deque model, across
 * capacities that are and are not powers of two, checking every live
 * at() after every operation: the ring wraps many times per capacity.
 */
TEST(BoundedQueue, MatchesDequeAcrossWraps)
{
    for (const std::size_t cap : {1u, 2u, 3u, 5u, 6u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "capacity " << cap);
        BoundedQueue<int> q(cap);
        std::deque<int> model;
        aurora::Rng rng(cap);
        int next_value = 0;
        for (int op = 0; op < 2000; ++op) {
            const bool push =
                model.empty() || (model.size() < cap && rng.chance(0.5));
            if (push) {
                q.push(next_value);
                model.push_back(next_value++);
            } else {
                ASSERT_EQ(q.pop(), model.front());
                model.pop_front();
            }
            ASSERT_EQ(q.size(), model.size());
            ASSERT_EQ(q.full(), model.size() == cap);
            for (std::size_t i = 0; i < model.size(); ++i)
                ASSERT_EQ(q.at(i), model[i]) << "at(" << i << ")";
        }
    }
}

/**
 * Capacities that are not powers of two sit in a larger ring: full()
 * must answer at the capacity, not at the ring's size, and order and
 * at() must hold while head and tail wrap the ring many times.
 */
TEST(BoundedQueue, NonPowerOfTwoCapacitiesFillAtCapacity)
{
    for (const std::size_t cap : {3u, 5u, 6u, 7u}) {
        SCOPED_TRACE(::testing::Message() << "capacity " << cap);
        BoundedQueue<int> q(cap);
        int next_in = 0;
        int next_out = 0;
        // Each round refills to the capacity and pops two, so the
        // 4 * cap rounds push about 9 * cap entries through a ring
        // of fewer than 2 * cap slots.
        for (std::size_t round = 0; round < 4 * cap; ++round) {
            while (!q.full()) {
                ASSERT_LT(q.size(), cap);
                q.push(next_in++);
            }
            ASSERT_EQ(q.size(), cap);
            ASSERT_EQ(q.space(), 0u);
            for (std::size_t i = 0; i < cap; ++i)
                ASSERT_EQ(q.at(i), next_out + static_cast<int>(i))
                    << "at(" << i << ")";
            ASSERT_EQ(q.pop(), next_out++);
            ASSERT_EQ(q.pop(), next_out++);
            ASSERT_FALSE(q.full());
        }
        EXPECT_GT(next_in, static_cast<int>(3 * cap));
        while (!q.empty())
            ASSERT_EQ(q.pop(), next_out++);
        EXPECT_EQ(next_out, next_in);
    }
}

TEST(BoundedQueue, DropDiscardsTheOldestAcrossWraps)
{
    BoundedQueue<int> q(5);
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 40; ++round) {
        while (!q.full())
            q.push(next_in++);
        const std::size_t n = static_cast<std::size_t>(round % 4);
        q.drop(n);
        next_out += static_cast<int>(n);
        ASSERT_EQ(q.size(), 5 - n);
        ASSERT_EQ(q.front(), next_out);
        ASSERT_EQ(q.pop(), next_out++);
    }
}

TEST(BoundedQueueDeath, DropPastTheEndPanics)
{
    BoundedQueue<int> q(3);
    q.push(1);
    EXPECT_DEATH(q.drop(2), "drop past the end");
}

TEST(BoundedQueueDeath, PushAtNonPowerOfTwoCapacityPanics)
{
    for (const std::size_t cap : {3u, 5u, 6u, 7u}) {
        BoundedQueue<int> q(cap);
        // Wrap the ring first, so head and tail sit mid-ring.
        for (std::size_t i = 0; i < 3 * cap; ++i) {
            q.push(static_cast<int>(i));
            q.pop();
        }
        for (std::size_t i = 0; i < cap; ++i)
            q.push(static_cast<int>(i));
        EXPECT_DEATH(q.push(-1), "full") << "capacity " << cap;
    }
}

TEST(BoundedQueueDeath, PushWhenFullPanics)
{
    BoundedQueue<int> q(1);
    q.push(1);
    EXPECT_DEATH(q.push(2), "full");
}

TEST(BoundedQueueDeath, PopWhenEmptyPanics)
{
    BoundedQueue<int> q(1);
    EXPECT_DEATH(q.pop(), "empty");
}

TEST(BoundedQueueDeath, AtOutOfRangePanics)
{
    BoundedQueue<int> q(2);
    q.push(1);
    EXPECT_DEATH(q.at(1), "range");
}

} // namespace
