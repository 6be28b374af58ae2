/**
 * @file
 * Splitting a lockstep unit between rounds. The machines a split moves
 * read on from a copy of the window, so every member of every piece
 * must end byte-identical to its solo simulate(), and so must an
 * attached observer's own event stream, wherever the split falls: at
 * round 1 (every machine still holds a view into the first ring), at a
 * middle round, at the last round with two live machines, and again in
 * a split-off unit, also before its machines read again. The ring a
 * split froze must be freed once every machine has read past it, and
 * not before (the asan preset catches a view left dangling).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "harness/journal.hh"
#include "trace/spec_profiles.hh"
#include "util/hash.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

constexpr Count N = 20'000;

/** Folds every event it sees into one digest. */
struct Recorder : PipelineObserver
{
    std::uint64_t digest = 0;
    Count events = 0;

    void
    add(std::uint64_t v)
    {
        digest = util::mix64(digest ^ v);
        ++events;
    }

    void
    onIssue(Cycle now, const trace::Inst &inst, unsigned slot) override
    {
        add(now);
        add(inst.pc);
        add(slot);
    }
    void
    onStall(Cycle now, StallCause cause) override
    {
        add(now);
        add(static_cast<std::uint64_t>(cause));
    }
    void
    onRetire(Cycle now, unsigned count) override
    {
        add(now);
        add(count);
    }
    void
    onCacheAccess(Cycle now, CacheUnit unit, unsigned hits,
                  unsigned misses) override
    {
        add(now);
        add(static_cast<std::uint64_t>(unit));
        add(hits);
        add(misses);
    }
    void
    onLoadIssue(Cycle now, Cycle latency, bool miss) override
    {
        add(now);
        add(latency);
        add(miss);
    }
    void
    onMshr(Cycle now, unsigned allocated, unsigned released,
           unsigned in_use) override
    {
        add(now);
        add(allocated);
        add(released);
        add(in_use);
    }
    void
    onFpQueue(Cycle now, FpQueueKind queue, unsigned enqueued,
              unsigned dequeued, unsigned depth) override
    {
        add(now);
        add(static_cast<std::uint64_t>(queue));
        add(enqueued);
        add(dequeued);
        add(depth);
    }
    void
    onDrainStart(Cycle now) override
    {
        add(now);
    }
    void
    onDrainEnd(Cycle now, unsigned mshr_releases) override
    {
        add(now);
        add(mshr_releases);
    }
    void
    onCycleEnd(Cycle now, const OccupancySample &occ) override
    {
        add(now);
        for (const unsigned v :
             {occ.rob, occ.mshr, occ.write_cache, occ.prefetch,
              occ.fp_instq, occ.fp_loadq, occ.fp_storeq, occ.fp_rob})
            add(v);
    }
};

/** The six study machines: every model at issue widths 1 and 2. */
std::vector<MachineConfig>
sixMachines()
{
    std::vector<MachineConfig> machines;
    for (const MachineConfig &model : studyModels())
        for (const unsigned issue : {1u, 2u})
            machines.push_back(model.withIssueWidth(issue));
    return machines;
}

/** One machine's result bytes and its observer's digest. */
struct Seen
{
    std::string bytes;
    std::uint64_t digest = 0;
    Count events = 0;
};

/** A split of unit @p unit (0 = the first, then in creation order)
 *  after it has run @p after rounds. */
struct Split
{
    std::size_t unit;
    std::size_t after;
};

/**
 * Run @p machines over @p profile as one unit, with observers when
 * @p observed, stepping every unit once per turn and splitting as
 * @p plan says. Checks that every frozen ring is freed within a few
 * rounds of its split and that the pieces synthesize the trace once
 * plus what each split-off unit reads past its split.
 */
std::vector<Seen>
runSplit(const std::vector<MachineConfig> &machines,
         const trace::WorkloadProfile &profile,
         const std::vector<Split> &plan, bool observed)
{
    std::vector<Recorder> recorders(machines.size());
    std::vector<PipelineObserver *> observers;
    if (observed)
        for (Recorder &r : recorders)
            observers.push_back(&r);

    EXPECT_EQ(LockstepUnit::frozenRings(), 0u);
    std::vector<std::unique_ptr<LockstepUnit>> units;
    units.push_back(std::make_unique<LockstepUnit>(
        machines, profile, N, defaultWatchdog(), observers));
    std::vector<std::size_t> rounds = {0};
    std::vector<bool> running = {true};
    // Turns a unit sits out: a split-off unit waits two, so the unit
    // it came from refills twice while the moved machines still hold
    // their last views.
    std::vector<std::size_t> waits = {0};
    std::size_t splits = 0;
    std::size_t since_split = 0;
    for (bool any = true; any;) {
        any = false;
        for (std::size_t u = 0; u < units.size(); ++u) {
            if (!running[u])
                continue;
            if (waits[u] > 0) {
                --waits[u];
                any = true;
                continue;
            }
            for (const Split &s : plan)
                if (s.unit == u && s.after == rounds[u]) {
                    EXPECT_GE(units[u]->live(), 2u)
                        << "split planned on a unit that cannot split";
                    units.push_back(units[u]->split());
                    rounds.push_back(0);
                    running.push_back(true);
                    waits.push_back(2);
                    ++splits;
                    since_split = 0;
                    EXPECT_GE(LockstepUnit::frozenRings(), 1u);
                }
            running[u] = units[u]->step();
            ++rounds[u];
            any = any || running[u];
        }
        // Every machine reads past the split point within a few
        // rounds of its unit (or ends), releasing the frozen ring.
        if (++since_split > 5) {
            EXPECT_EQ(LockstepUnit::frozenRings(), 0u)
                << since_split << " turns after a split";
        }
    }
    EXPECT_EQ(LockstepUnit::frozenRings(), 0u);
    EXPECT_EQ(splits, plan.size());

    Count synthesized = 0;
    std::vector<Seen> seen(machines.size());
    std::vector<bool> got(machines.size(), false);
    for (const auto &unit : units) {
        synthesized += unit->synthesized();
        for (auto &[position, run] : unit->take()) {
            EXPECT_FALSE(got[position]) << "member " << position;
            got[position] = true;
            if (run.error) {
                ADD_FAILURE() << "member " << position << " failed";
                continue;
            }
            seen[position].bytes = harness::runResultBytes(run.result);
            seen[position].digest = recorders[position].digest;
            seen[position].events = recorders[position].events;
        }
    }
    for (std::size_t i = 0; i < machines.size(); ++i)
        EXPECT_TRUE(got[i]) << "member " << i << " never reported";
    EXPECT_GE(synthesized, N);
    EXPECT_LE(synthesized, N * (1 + plan.size()));
    return seen;
}

/** Every machine of @p machines run alone through simulate(). */
std::vector<Seen>
solo(const std::vector<MachineConfig> &machines,
     const trace::WorkloadProfile &profile, bool observed)
{
    std::vector<Seen> seen;
    for (const MachineConfig &m : machines) {
        Recorder rec;
        const RunResult r = simulate(m, profile, N, defaultWatchdog(),
                                     observed ? &rec : nullptr);
        seen.push_back({harness::runResultBytes(r), rec.digest, rec.events});
    }
    return seen;
}

/** Rounds an unsplit unit runs, and the last one begun with two or
 *  more live machines. */
std::pair<std::size_t, std::size_t>
roundsOf(const std::vector<MachineConfig> &machines,
         const trace::WorkloadProfile &profile)
{
    LockstepUnit unit(machines, profile, N);
    std::size_t rounds = 0;
    std::size_t last_shared = 0;
    for (bool more = true; more; ++rounds) {
        if (unit.live() >= 2)
            last_shared = rounds;
        more = unit.step();
    }
    return {rounds, last_shared};
}

void
expectSame(const std::vector<Seen> &got, const std::vector<Seen> &want,
           const std::string &what)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].bytes, want[i].bytes) << what << " member " << i;
        EXPECT_EQ(got[i].digest, want[i].digest) << what << " member " << i;
        EXPECT_EQ(got[i].events, want[i].events) << what << " member " << i;
    }
}

class LockstepSplit
    : public ::testing::TestWithParam<trace::WorkloadProfile>
{};

/**
 * Every plan on @p machines, observed and not. A split moves the back
 * half of the machines: the faster ones in study order, the slower
 * ones in reverse, whose views lag the staying machines' and would be
 * overwritten if the staying window wrote on in the shared ring.
 */
void
expectEveryPlanMatchesSolo(const std::vector<MachineConfig> &machines,
                           const trace::WorkloadProfile &profile)
{
    const auto [rounds, last_shared] = roundsOf(machines, profile);
    ASSERT_GT(last_shared, 2u);
    const std::size_t middle = rounds / 2;
    ASSERT_LT(middle, last_shared);

    const std::vector<std::pair<std::string, std::vector<Split>>> plans = {
        {"round 1", {{0, 1}}},
        {"middle", {{0, middle}}},
        {"last shared round", {{0, last_shared}}},
        {"split of a split", {{0, 1}, {1, 2}}},
        {"both pieces again", {{0, 1}, {1, 1}, {0, middle}}},
        // No moved machine reads between these three splits, so each
        // still holds a view into the first frozen ring.
        {"again before a read", {{0, 1}, {0, 1}, {1, 0}}},
    };
    for (const bool observed : {false, true}) {
        const std::vector<Seen> want = solo(machines, profile, observed);
        for (const auto &[name, plan] : plans)
            expectSame(runSplit(machines, profile, plan, observed), want,
                       name + (observed ? " (observed)" : ""));
    }
}

TEST_P(LockstepSplit, EveryMemberMatchesItsSoloRunWhereverTheSplitFalls)
{
    std::vector<MachineConfig> machines = sixMachines();
    expectEveryPlanMatchesSolo(machines, GetParam());
    std::reverse(machines.begin(), machines.end());
    SCOPED_TRACE("slowest machines moved");
    expectEveryPlanMatchesSolo(machines, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    IntAndFp, LockstepSplit,
    ::testing::Values(trace::espresso(), trace::nasa7()),
    [](const ::testing::TestParamInfo<trace::WorkloadProfile> &p) {
        return p.param.name;
    });

TEST(LockstepSplitRules, SplitMovesTheBackHalfOfTheLiveMachines)
{
    const std::vector<MachineConfig> machines = sixMachines();
    LockstepUnit unit(machines, trace::li(), N);
    ASSERT_TRUE(unit.step());
    ASSERT_EQ(unit.live(), 6u);
    const Count before = unit.remaining();
    std::unique_ptr<LockstepUnit> other = unit.split();
    EXPECT_EQ(unit.live(), 3u);
    EXPECT_EQ(other->live(), 3u);
    EXPECT_EQ(unit.remaining() + other->remaining(), before);
    EXPECT_EQ(other->synthesized(), 0u);
    while (unit.step()) {
    }
    while (other->step()) {
    }
    std::vector<std::size_t> kept, moved;
    for (auto &[position, run] : unit.take())
        kept.push_back(position);
    for (auto &[position, run] : other->take())
        moved.push_back(position);
    EXPECT_EQ(kept, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(moved, (std::vector<std::size_t>{3, 4, 5}));
    EXPECT_EQ(LockstepUnit::frozenRings(), 0u);
}

} // namespace
