/**
 * @file
 * Unit tests for the result-bus reservation table.
 */

#include <gtest/gtest.h>

#include "fpu/result_bus.hh"

namespace
{

using namespace aurora;
using aurora::fpu::ResultBusSchedule;

TEST(ResultBus, TwoBusesTwoSlotsPerCycle)
{
    ResultBusSchedule sched(2);
    EXPECT_TRUE(sched.canReserve(5));
    sched.reserve(5);
    EXPECT_TRUE(sched.canReserve(5));
    sched.reserve(5);
    EXPECT_FALSE(sched.canReserve(5));
    EXPECT_TRUE(sched.canReserve(6));
}

TEST(ResultBus, AdvanceFreesPastSlots)
{
    ResultBusSchedule sched(1);
    sched.reserve(3);
    EXPECT_FALSE(sched.canReserve(3));
    sched.advance(4);
    // Cycle 3 is in the past; its slot will be reused far in the
    // future (ring wraps at WINDOW).
    sched.reserve(4);
    sched.advance(10);
    EXPECT_TRUE(sched.canReserve(3 + ResultBusSchedule::WINDOW));
}

TEST(ResultBus, LongHorizonAdvance)
{
    ResultBusSchedule sched(2);
    sched.advance(100000);
    sched.reserve(100005);
    EXPECT_TRUE(sched.canReserve(100005));
}

TEST(ResultBus, JumpBeyondWindowClearsEverySlot)
{
    // A skipped idle span can advance the clock by more than WINDOW
    // cycles at once; no reservation may survive the jump.
    ResultBusSchedule sched(1);
    sched.advance(10);
    for (Cycle t = 10; t < 10 + ResultBusSchedule::WINDOW; ++t)
        sched.reserve(t);
    const Cycle now = 10 + 3 * ResultBusSchedule::WINDOW + 7;
    sched.advance(now);
    for (Cycle t = now; t < now + ResultBusSchedule::WINDOW; ++t)
        EXPECT_TRUE(sched.canReserve(t)) << "slot " << t;
    sched.reserve(now + 5);
    EXPECT_FALSE(sched.canReserve(now + 5));
    EXPECT_TRUE(sched.canReserve(now + 6));
    // Stepping on from there behaves as before.
    sched.advance(now + 6);
    EXPECT_TRUE(sched.canReserve(now + 5 + ResultBusSchedule::WINDOW));
}

TEST(ResultBus, SingleBusSerializesCompletions)
{
    ResultBusSchedule sched(1);
    for (Cycle t = 10; t < 20; ++t) {
        ASSERT_TRUE(sched.canReserve(t));
        sched.reserve(t);
        ASSERT_FALSE(sched.canReserve(t));
    }
}

TEST(ResultBusDeath, PastReservationPanics)
{
    ResultBusSchedule sched(2);
    sched.advance(10);
    EXPECT_DEATH(sched.canReserve(5), "past");
}

TEST(ResultBusDeath, BeyondWindowPanics)
{
    ResultBusSchedule sched(2);
    EXPECT_DEATH(sched.canReserve(ResultBusSchedule::WINDOW + 5),
                 "window");
}

TEST(ResultBusDeath, OvercommitPanics)
{
    ResultBusSchedule sched(1);
    sched.reserve(3);
    EXPECT_DEATH(sched.reserve(3), "overcommitted");
}

} // namespace
