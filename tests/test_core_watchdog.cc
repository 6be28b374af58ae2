/**
 * @file
 * Forward-progress watchdog tests: a validating-but-wedged machine is
 * converted into a structured NoForwardProgress error with a usable
 * diagnostic snapshot, the hard cycle budget trips deterministically,
 * and healthy runs are bit-identical with or without the watchdog.
 * Trips land on the cycle their definitions name (last retirement +
 * stall_limit, the budget) whether the run is stepped, skipped or
 * resumed in slices.
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "core/watchdog.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "util/rng.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using util::SimErrorCode;

/** A machine that validates but can never retire FP work. */
MachineConfig
wedgedMachine()
{
    auto m = baselineModel();
    m.fpu.result_buses = 0; // no writeback slot: FP ops never issue
    return m;
}

TEST(Watchdog, WedgedMachineRaisesNoForwardProgress)
{
    const auto m = wedgedMachine();
    m.validate(); // the wedge is structurally legal by design
    try {
        simulate(m, trace::nasa7(), 50'000, WatchdogConfig{2000, 0});
        FAIL() << "a bus-starved FPU must trip the watchdog";
    } catch (const WatchdogError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::NoForwardProgress);
        const WatchdogDiagnostic &d = e.diagnostic();
        EXPECT_EQ(d.model, "baseline");
        EXPECT_EQ(d.watchdog.stall_limit, 2000u);
        // The snapshot must describe the wedge: the clock advanced at
        // least a full stall window past the last retirement, and the
        // FP decoupling queue is full with the IPU stalled on it.
        EXPECT_GE(d.cycle, d.last_retire_cycle + 2000);
        EXPECT_GT(d.instructions, 0u);
        EXPECT_EQ(d.fp_instq_size, d.fp_instq_capacity);
        EXPECT_GT(
            d.stalls[static_cast<std::size_t>(StallCause::FpQueue)],
            0u);
        // And render into a one-line message for sweep summaries.
        const std::string text = d.toString();
        EXPECT_NE(text.find("baseline"), std::string::npos) << text;
        EXPECT_NE(text.find("FP-Queue"), std::string::npos) << text;
        EXPECT_NE(std::string(e.what()).find("no instruction retired"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Watchdog, WedgeTripsDeterministically)
{
    Cycle trips[2] = {0, 0};
    for (int round = 0; round < 2; ++round) {
        try {
            simulate(wedgedMachine(), trace::nasa7(), 50'000,
                     WatchdogConfig{1500, 0});
        } catch (const WatchdogError &e) {
            trips[round] = e.diagnostic().cycle;
        }
    }
    EXPECT_GT(trips[0], 0u);
    EXPECT_EQ(trips[0], trips[1]);
}

TEST(Watchdog, CycleBudgetTripsExactlyAtBudget)
{
    constexpr Cycle BUDGET = 5000;
    for (int round = 0; round < 2; ++round) {
        try {
            simulate(baselineModel(), trace::espresso(), 400'000,
                     WatchdogConfig{0, BUDGET});
            FAIL() << "espresso cannot finish 400k insts in 5k cycles";
        } catch (const WatchdogError &e) {
            EXPECT_EQ(e.code(), SimErrorCode::CycleBudgetExceeded);
            EXPECT_EQ(e.diagnostic().cycle, BUDGET);
            EXPECT_GT(e.diagnostic().retired, 0u)
                << "a healthy machine was making progress";
            EXPECT_NE(std::string(e.what()).find("cycle budget"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Watchdog, DisabledWatchdogLetsHealthyRunsFinish)
{
    const auto r = simulate(baselineModel(), trace::espresso(), 20'000,
                            WatchdogConfig{0, 0});
    EXPECT_EQ(r.instructions, 20'000u);
}

TEST(Watchdog, HealthyRunsAreIdenticalUnderAnyPolicy)
{
    // The watchdog observes; it must never perturb cycle accounting.
    const auto a = simulate(baselineModel(), trace::gcc(), 20'000,
                            WatchdogConfig{0, 0});
    const auto b = simulate(baselineModel(), trace::gcc(), 20'000,
                            defaultWatchdog());
    const auto c = simulate(baselineModel(), trace::gcc(), 20'000,
                            WatchdogConfig{500, 10'000'000});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cycles, c.cycles);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_EQ(a.stalls, c.stalls);
    EXPECT_EQ(a.instructions, c.instructions);
}

TEST(Watchdog, DefaultPolicyIsAConstant)
{
    // The default policy is fixed in code; no environment variable
    // changes it, so this also documents the default.
    constexpr auto wd = defaultWatchdog();
    EXPECT_EQ(wd.stall_limit, DEFAULT_WATCHDOG_CYCLES);
    EXPECT_EQ(wd.cycle_budget, 0u);
}

TEST(Watchdog, SnapshotIsReadableMidRun)
{
    // snapshot() is a const observer usable outside error paths too
    // (e.g. progress displays).
    trace::SyntheticWorkload workload(trace::espresso());
    trace::LimitedTraceSource limited(workload, 1000);
    Processor cpu(baselineModel(), limited, WatchdogConfig{0, 0});
    const auto before = cpu.snapshot();
    EXPECT_EQ(before.cycle, 0u);
    EXPECT_EQ(before.retired, 0u);
    cpu.run();
    const auto after = cpu.snapshot();
    EXPECT_GT(after.cycle, 0u);
    EXPECT_EQ(after.instructions, 1000u);
    EXPECT_EQ(after.rob_capacity, baselineModel().rob_entries);
}


/** Receives every event and ignores it; forces single-stepping. */
struct NullObserver : PipelineObserver
{};

/** The watchdog trip of a run, and how much of it was skipped. */
struct Trip
{
    util::SimErrorCode code = util::SimErrorCode::Internal;
    WatchdogDiagnostic diag;
    Cycle skipped = 0;
};

/**
 * Run @p insts on @p m to its watchdog trip. With @p slice_seed != 0
 * the run goes through advance() in random slices of source input
 * (each call starts its checks afresh); @p observer forces stepping.
 */
Trip
tripOf(const MachineConfig &m, const std::vector<trace::Inst> &insts,
       const WatchdogConfig &wd, PipelineObserver *observer = nullptr,
       std::uint64_t slice_seed = 0)
{
    trace::VectorTraceSource src(insts);
    Processor cpu(m, src, wd);
    cpu.setObserver(observer);
    Trip trip;
    try {
        if (slice_seed) {
            Rng rng(slice_seed);
            Count available = 0;
            while (!cpu.advance(available))
                available +=
                    rng.chance(0.5) ? rng.range(0, 3) : rng.range(0, 500);
        } else {
            cpu.run();
        }
        ADD_FAILURE() << "watchdog did not trip";
    } catch (const WatchdogError &e) {
        trip.code = e.code();
        trip.diag = e.diagnostic();
    }
    trip.skipped = cpu.skippedCycles();
    return trip;
}

std::vector<trace::Inst>
collected(const trace::WorkloadProfile &p, Count n)
{
    trace::SyntheticWorkload w(p);
    return trace::collect(w, n);
}

/** Every way of running @p insts trips on the same cycle. */
void
expectTripEverywhere(const MachineConfig &m,
                     const std::vector<trace::Inst> &insts,
                     const WatchdogConfig &wd, util::SimErrorCode code,
                     Cycle expected_cycle_or_0)
{
    NullObserver obs;
    const Trip stepped = tripOf(m, insts, wd, &obs);
    ASSERT_EQ(stepped.code, code);
    EXPECT_EQ(stepped.skipped, 0u);
    const Cycle at = expected_cycle_or_0
                         ? expected_cycle_or_0
                         : stepped.diag.last_retire_cycle + wd.stall_limit;
    EXPECT_EQ(stepped.diag.cycle, at);
    WatchdogConfig armed = wd;
    armed.deadline_ms = 3'600'000;
    for (const WatchdogConfig &policy : {wd, armed}) {
        const Trip skipped = tripOf(m, insts, policy);
        EXPECT_EQ(skipped.code, code);
        EXPECT_EQ(skipped.diag.cycle, at);
        EXPECT_EQ(skipped.diag.toString(), stepped.diag.toString());
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            const Trip sliced = tripOf(m, insts, policy, nullptr, seed);
            EXPECT_EQ(sliced.code, code) << "seed " << seed;
            EXPECT_EQ(sliced.diag.cycle, at) << "seed " << seed;
            EXPECT_EQ(sliced.skipped, skipped.skipped) << "seed " << seed;
        }
    }
}

/** Records the cycle of the last retirement it sees. */
struct LastRetire : PipelineObserver
{
    void onRetire(Cycle now, unsigned) override { last = now; }
    Cycle last = 0;
};

TEST(WatchdogTrip, WedgeTripsAtLastRetirementPlusLimit)
{
    const auto insts = collected(trace::nasa7(), 50'000);
    for (const Cycle limit : {Cycle{1}, Cycle{1537}, Cycle{2000}}) {
        SCOPED_TRACE(::testing::Message() << "stall_limit " << limit);
        const WatchdogConfig wd{limit, 0};
        // The diagnostic's retirement mark is the last cycle that
        // retired, as an observer counts it.
        LastRetire seen;
        const Trip stepped = tripOf(wedgedMachine(), insts, wd, &seen);
        ASSERT_EQ(stepped.code, SimErrorCode::NoForwardProgress);
        EXPECT_EQ(stepped.diag.last_retire_cycle, seen.last);
        EXPECT_EQ(stepped.diag.cycle, seen.last + limit);
        expectTripEverywhere(wedgedMachine(), insts, wd,
                             SimErrorCode::NoForwardProgress, 0);
    }
}

TEST(WatchdogTrip, GapInsideASkippedSpanTripsAtLastRetirementPlusLimit)
{
    // At latency 100 the retirement gaps of a miss are skipped
    // spans; a limit of 60 ends inside one, so the jump must stop on
    // the trip cycle.
    const MachineConfig m = smallModel().withLatency(100);
    const auto insts = collected(trace::gcc(), 50'000);
    const WatchdogConfig wd{60, 0};
    const Trip skipped = tripOf(m, insts, wd);
    ASSERT_EQ(skipped.code, SimErrorCode::NoForwardProgress);
    EXPECT_GT(skipped.skipped, 0u);
    EXPECT_EQ(skipped.diag.cycle, skipped.diag.last_retire_cycle + 60);
    expectTripEverywhere(m, insts, wd, SimErrorCode::NoForwardProgress,
                         0);
}

TEST(WatchdogTrip, CycleBudgetLandsOnTheBudget)
{
    const auto insts = collected(trace::gcc(), 50'000);
    for (const Cycle budget : {Cycle{1}, Cycle{4097}, Cycle{20'000}}) {
        SCOPED_TRACE(::testing::Message() << "budget " << budget);
        for (const MachineConfig &m :
             {smallModel().withLatency(100), baselineModel()}) {
            expectTripEverywhere(m, insts, WatchdogConfig{0, budget},
                                 SimErrorCode::CycleBudgetExceeded,
                                 budget);
            // With both checks armed, the earlier one trips.
            expectTripEverywhere(m, insts,
                                 WatchdogConfig{1'000'000, budget},
                                 SimErrorCode::CycleBudgetExceeded,
                                 budget);
        }
    }
}

} // namespace
