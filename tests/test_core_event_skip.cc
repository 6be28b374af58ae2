/**
 * @file
 * Event skipping is invisible in the results.
 *
 * Processor::run() jumps over cycles in which no component can change
 * state, except while a PipelineObserver is attached: observed runs
 * are single-stepped. So simulate() with a no-op observer is the
 * stepped reference, and every RunResult must match it byte for byte
 * (harness::runResultBytes), watchdog trips included. The same holds
 * for a run resumed in slices through Processor::advance().
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "harness/journal.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "util/rng.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

constexpr Count INSTS = 20'000;

/** Receives every event and ignores it; forces single-stepping. */
struct NullObserver : PipelineObserver
{};

RunResult
stepped(const MachineConfig &m, const trace::WorkloadProfile &p,
        const WatchdogConfig &wd = defaultWatchdog())
{
    NullObserver obs;
    return simulate(m, p, INSTS, wd, &obs);
}

void
expectSameAsStepped(const MachineConfig &m,
                    const trace::WorkloadProfile &p)
{
    const RunResult skipped = simulate(m, p, INSTS);
    EXPECT_EQ(harness::runResultBytes(skipped),
              harness::runResultBytes(stepped(m, p)))
        << m.name << " lat=" << m.biu.latency << " " << p.name;
}

std::vector<trace::WorkloadProfile>
mixedProfiles()
{
    return {trace::espresso(), trace::gcc(), trace::nasa7(),
            trace::hydro2d()};
}

TEST(EventSkip, StudyModelsAcrossLatencies)
{
    for (const MachineConfig &model : studyModels())
        for (const Cycle lat : {5u, 17u, 35u, 100u})
            for (const auto &p : mixedProfiles())
                expectSameAsStepped(model.withLatency(lat), p);
}

TEST(EventSkip, FpIssuePoliciesAndPreciseMode)
{
    for (const auto policy : {fpu::IssuePolicy::InOrderComplete,
                              fpu::IssuePolicy::OutOfOrderSingle,
                              fpu::IssuePolicy::OutOfOrderDual})
        for (const bool precise : {false, true}) {
            MachineConfig m = baselineModel().withLatency(35);
            m.fpu.policy = policy;
            m.fpu.precise_exceptions = precise;
            for (const auto &p : {trace::nasa7(), trace::hydro2d(),
                                  trace::ora()})
                expectSameAsStepped(m, p);
        }
}

TEST(EventSkip, DegenerateAndAblatedMachines)
{
    std::vector<MachineConfig> machines;
    MachineConfig one_entry = smallModel().withLatency(35);
    one_entry.fpu.inst_queue = 1;
    one_entry.fpu.load_queue = 1;
    one_entry.fpu.store_queue = 1;
    machines.push_back(one_entry);
    MachineConfig victim = baselineModel().withLatency(35);
    victim.lsu.victim_lines = 4;
    machines.push_back(victim);
    MachineConfig no_fold = baselineModel().withLatency(17);
    no_fold.ifu.branch_folding = false;
    machines.push_back(no_fold);
    machines.push_back(baselineModel().withLatency(35).withPrefetch(false));
    machines.push_back(smallModel().withLatency(100).withIssueWidth(1));
    MachineConfig one_bus = baselineModel().withLatency(17);
    one_bus.fpu.result_buses = 1;
    machines.push_back(one_bus);
    // Deep ALU pipelines: Load stalls that only the scoreboard ends.
    MachineConfig deep_alu = baselineModel().withLatency(35);
    deep_alu.alu_latency = 4;
    machines.push_back(deep_alu);
    // §5.10 iterative multiplier: a busy unit frees before the
    // divide ahead of it in the FP reorder buffer completes.
    MachineConfig iter_mul = baselineModel().withLatency(17);
    iter_mul.fpu.mul.pipelined = false;
    machines.push_back(iter_mul);
    for (const MachineConfig &m : machines)
        for (const auto &p : mixedProfiles())
            expectSameAsStepped(m, p);
}

TEST(EventSkip, ArmedDeadlineKeepsResults)
{
    // An armed wall-clock deadline clamps every jump to the next
    // 1024-cycle poll; the results must not notice.
    WatchdogConfig wd = defaultWatchdog();
    wd.deadline_ms = 3'600'000;
    const MachineConfig m = smallModel().withLatency(100);
    EXPECT_EQ(harness::runResultBytes(simulate(m, trace::gcc(), INSTS, wd)),
              harness::runResultBytes(stepped(m, trace::gcc())));
}

/** Run expecting a watchdog trip; return its diagnostic. */
WatchdogDiagnostic
tripOf(const MachineConfig &m, const trace::WorkloadProfile &p,
       const WatchdogConfig &wd, PipelineObserver *obs,
       util::SimErrorCode code)
{
    try {
        simulate(m, p, 50'000, wd, obs);
    } catch (const WatchdogError &e) {
        EXPECT_EQ(e.code(), code);
        return e.diagnostic();
    }
    ADD_FAILURE() << "watchdog did not trip";
    return {};
}

void
expectSameTrip(const MachineConfig &m, const trace::WorkloadProfile &p,
               const WatchdogConfig &wd, util::SimErrorCode code)
{
    NullObserver obs;
    const auto skipped = tripOf(m, p, wd, nullptr, code);
    const auto single = tripOf(m, p, wd, &obs, code);
    EXPECT_EQ(skipped.cycle, single.cycle);
    EXPECT_EQ(skipped.last_retire_cycle, single.last_retire_cycle);
    EXPECT_EQ(skipped.instructions, single.instructions);
    EXPECT_EQ(skipped.retired, single.retired);
    EXPECT_EQ(skipped.stalls, single.stalls);
    EXPECT_EQ(skipped.toString(), single.toString());
}

TEST(EventSkip, WedgedMachineTripsOnTheSameCycle)
{
    MachineConfig m = baselineModel();
    m.fpu.result_buses = 0;
    expectSameTrip(m, trace::nasa7(), WatchdogConfig{2000, 0},
                   util::SimErrorCode::NoForwardProgress);
}

TEST(EventSkip, StallLimitBelowMemoryLatencyTripsOnTheSameCycle)
{
    // A retirement gap longer than the limit opens inside a skipped
    // span, so the jump itself must stop on the trip cycle.
    expectSameTrip(smallModel().withLatency(100), trace::gcc(),
                   WatchdogConfig{60, 0},
                   util::SimErrorCode::NoForwardProgress);
}

TEST(EventSkip, CycleBudgetLandsExactlyOnBudget)
{
    constexpr Cycle BUDGET = 5000;
    const MachineConfig m = smallModel().withLatency(100);
    expectSameTrip(m, trace::gcc(), WatchdogConfig{0, BUDGET},
                   util::SimErrorCode::CycleBudgetExceeded);
    EXPECT_EQ(tripOf(m, trace::gcc(), WatchdogConfig{0, BUDGET}, nullptr,
                     util::SimErrorCode::CycleBudgetExceeded)
                  .cycle,
              BUDGET);
}

/** Run @p p on @p m directly; return {cycles, skipped cycles}. */
std::pair<Cycle, Cycle>
skipShare(const MachineConfig &m, const trace::WorkloadProfile &p,
          PipelineObserver *obs)
{
    trace::SyntheticWorkload workload(p);
    trace::LimitedTraceSource limited(workload, INSTS);
    Processor cpu(m, limited);
    cpu.setObserver(obs);
    const RunResult r = cpu.run();
    return {r.cycles, cpu.skippedCycles()};
}

TEST(EventSkip, SmallModelAtLatency100SkipsMostCycles)
{
    // Guards against skipping silently switching itself off: the
    // memory-bound corner must spend most of its cycles in jumps.
    const auto [cycles, skipped] =
        skipShare(smallModel().withLatency(100), trace::espresso(), nullptr);
    ASSERT_GT(cycles, 0u);
    EXPECT_GE(static_cast<double>(skipped),
              0.60 * static_cast<double>(cycles))
        << skipped << " of " << cycles << " cycles skipped";
}

TEST(EventSkip, FpProfileAtLatency100SkipsMostCycles)
{
    // The same guard for the FPU's side of the next-event query. ora
    // (divide bound) keeps FP work queued across many fill waits: it
    // skips 0.67 of its cycles at this length (the FP suite:
    // 0.57-0.79), and 0.42 if the FPU answers `now` whenever an
    // operation is queued.
    const auto [cycles, skipped] =
        skipShare(smallModel().withLatency(100), trace::ora(), nullptr);
    ASSERT_GT(cycles, 0u);
    EXPECT_GE(static_cast<double>(skipped),
              0.55 * static_cast<double>(cycles))
        << skipped << " of " << cycles << " cycles skipped";
}

/**
 * advance() in random slices of source input, then finish(), against
 * one run() over the same trace: equal results and equal skipping.
 */
void
expectSlicedEqualsRun(const MachineConfig &m,
                      const trace::WorkloadProfile &p, std::uint64_t seed,
                      bool observed)
{
    trace::SyntheticWorkload workload(p);
    const std::vector<trace::Inst> insts = trace::collect(workload, INSTS);
    NullObserver obs_whole, obs_sliced;

    trace::VectorTraceSource whole_src(insts);
    Processor whole(m, whole_src);
    whole.setObserver(observed ? &obs_whole : nullptr);
    const RunResult reference = whole.run();

    trace::VectorTraceSource sliced_src(insts);
    Processor sliced(m, sliced_src);
    sliced.setObserver(observed ? &obs_sliced : nullptr);
    Rng rng(seed);
    Count available = 0;
    unsigned calls = 0;
    // Mostly slices shorter than one step's pull bound, some long.
    while (!sliced.advance(available)) {
        available += rng.chance(0.5) ? rng.range(0, 3) : rng.range(0, 2000);
        ++calls;
    }
    EXPECT_GT(calls, 10u);
    EXPECT_EQ(harness::runResultBytes(sliced.finish()),
              harness::runResultBytes(reference))
        << m.name << " " << p.name << " observed=" << observed;
    EXPECT_EQ(sliced.skippedCycles(), whole.skippedCycles());
}

TEST(EventSkip, AdvanceInRandomSlicesEqualsRun)
{
    std::uint64_t seed = 1;
    for (const bool observed : {false, true})
        for (const MachineConfig &m :
             {smallModel().withLatency(100), baselineModel().withLatency(35),
              largeModel().withIssueWidth(1).withLatency(17)})
            for (const auto &p : mixedProfiles())
                expectSlicedEqualsRun(m, p, seed++, observed);
}

TEST(EventSkip, ObservedRunsNeverSkip)
{
    NullObserver obs;
    const auto [cycles, skipped] =
        skipShare(smallModel().withLatency(100), trace::espresso(), &obs);
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(skipped, 0u);
}

} // namespace
