/**
 * @file
 * Unit tests for the result-bus reservation table, and a differential
 * test of its stamped slots against the clear-per-cycle table they
 * replaced.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "fpu/result_bus.hh"
#include "util/rng.hh"

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

/**
 * The reference: the table before slots were stamped. advance() clears
 * the slot of every cycle that fell into the past, or the whole ring
 * in one pass when the jump covers a full window.
 */
class ClearingSchedule
{
  public:
    static constexpr std::size_t WINDOW = ResultBusSchedule::WINDOW;

    explicit ClearingSchedule(unsigned buses) : buses_(buses) {}

    void
    advance(Cycle now)
    {
        if (now >= horizon_ + WINDOW) {
            counts_.fill(0);
            horizon_ = now;
            return;
        }
        while (horizon_ < now) {
            counts_[horizon_ % WINDOW] = 0;
            ++horizon_;
        }
    }

    bool
    canReserve(Cycle when) const
    {
        return counts_[when % WINDOW] < buses_;
    }

    void reserve(Cycle when) { ++counts_[when % WINDOW]; }

  private:
    unsigned buses_;
    std::array<std::uint8_t, WINDOW> counts_{};
    Cycle horizon_ = 0;
};

/** How far one random step moves the clock. */
enum class Gap
{
    None,        ///< 0 cycles: more reservations at the same cycle
    Short,       ///< 1 .. WINDOW - 1 cycles
    WholeWindow, ///< WINDOW .. 3 * WINDOW cycles (a skipped idle span)
};

/**
 * Drive both tables with one seeded sequence of advance() and
 * reserve() calls; after every advance, canReserve must agree on every
 * cycle of the window, and again after every reservation on the cycle
 * it claimed. Counts the reservations made and the queries refused.
 */
void
expectTablesAgree(unsigned buses, std::uint64_t seed, Count &reserved,
                  Count &refused)
{
    constexpr Cycle W = ResultBusSchedule::WINDOW;
    ResultBusSchedule stamped(buses);
    ClearingSchedule reference(buses);
    Rng rng(seed);
    Cycle now = 0;
    std::array<Count, 3> gaps{};
    for (int step = 0; step < 3000; ++step) {
        const auto gap = static_cast<Gap>(rng.uniform(3));
        ++gaps[static_cast<std::size_t>(gap)];
        switch (gap) {
          case Gap::None: break;
          case Gap::Short: now += rng.range(1, W - 1); break;
          case Gap::WholeWindow: now += rng.range(W, 3 * W); break;
        }
        stamped.advance(now);
        reference.advance(now);
        for (Cycle when = now; when < now + W; ++when)
            ASSERT_EQ(stamped.canReserve(when), reference.canReserve(when))
                << "buses " << buses << " seed " << seed << " step "
                << step << " now " << now << " when " << when;
        // Mostly the FPU's unit latencies, so slots fill and refuse;
        // sometimes anywhere up to WINDOW - 1 ahead.
        const auto tries = rng.range(0, 6);
        for (std::uint64_t t = 0; t < tries; ++t) {
            static constexpr std::array<Cycle, 5> LATENCIES{1, 2, 3, 5, 19};
            const Cycle ahead = rng.chance(0.8)
                                    ? LATENCIES[rng.uniform(LATENCIES.size())]
                                    : rng.range(0, W - 1);
            const Cycle when = now + ahead;
            const bool free = stamped.canReserve(when);
            ASSERT_EQ(free, reference.canReserve(when))
                << "buses " << buses << " seed " << seed << " step "
                << step << " now " << now << " when " << when;
            if (!free) {
                ++refused;
                continue;
            }
            stamped.reserve(when);
            reference.reserve(when);
            ++reserved;
            ASSERT_EQ(stamped.canReserve(when), reference.canReserve(when));
        }
    }
    for (const Count n : gaps)
        EXPECT_GT(n, 0u) << "every gap kind must occur";
}

TEST(ResultBusDifferential, StampedSlotsMatchClearPerCycleTable)
{
    for (const unsigned buses : {1u, 2u, 3u})
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            Count reserved = 0;
            Count refused = 0;
            expectTablesAgree(buses, seed, reserved, refused);
            if (HasFatalFailure())
                return;
            // Not vacuous: slots both filled up and were claimed.
            EXPECT_GT(reserved, 1000u) << "buses " << buses;
            EXPECT_GT(refused, 100u) << "buses " << buses;
        }
}

} // namespace
