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
