/**
 * @file
 * The distributed sweep's headline property: for every shard count
 * and every randomized sabotage schedule, the swarm's merged results
 * are **bit-identical** to a serial SweepRunner over the same grid —
 * fencing, migration, and respawn may change *who* ran a job and
 * *when*, never *what* it produced.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "shard/swarm.hh"
#include "trace/spec_profiles.hh"
#include "test_tmp.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;

/** splitmix64 — deterministic schedule randomness without rand(). */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

using aurora::test::tempPath;

/** Two machines per trace, so every unit has two members at one and
 *  two shards and a fault after one Result lands mid-unit. */
std::vector<harness::SweepJob>
testGrid()
{
    std::vector<harness::SweepJob> grid;
    for (const char *spec : {"model=small", "model=baseline"}) {
        const auto row = harness::suiteJobs(core::parseMachineSpec(spec),
                                            trace::integerSuite(), 2000);
        grid.insert(grid.end(), row.begin(), row.end());
    }
    return grid;
}

/** Serial ground truth, computed once per binary run. */
const std::vector<harness::SweepOutcome> &
serialOutcomes()
{
    static const std::vector<harness::SweepOutcome> outcomes = [] {
        harness::SweepOptions options;
        options.workers = 1;
        harness::SweepRunner runner(std::move(options));
        return runner.runOutcomes(testGrid());
    }();
    return outcomes;
}

void
expectBitIdentical(const std::vector<harness::SweepOutcome> &got)
{
    const std::vector<harness::SweepOutcome> &want = serialOutcomes();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        ASSERT_TRUE(got[i].ok);
        ASSERT_TRUE(want[i].ok);
        // Byte-level equality of the full result statistics block —
        // the same check the journal's CRC framing protects on disk.
        EXPECT_EQ(harness::runResultBytes(got[i].result),
                  harness::runResultBytes(want[i].result));
    }
}

/** Run one swarm over the grid with a seed-derived sabotage
 *  schedule: each slot independently draws no-fault or one of the
 *  four ShardFaults, armed after 0 or 1 completions. */
void
runSchedule(std::uint32_t shards,
            std::optional<std::uint64_t> sabotage_seed,
            const std::string &tag)
{
    shard::SwarmConfig config;
    config.socket_path = tempPath("merge-" + tag + ".sock");
    config.journal_dir = tempPath("merge-" + tag + ".jd");
    fs::remove(config.socket_path);
    fs::remove_all(config.journal_dir);
    config.shards = shards;
    config.lease_ms = 400;
    config.fault_plans.resize(shards);
    std::string plan_desc;
    for (std::uint32_t s = 0; sabotage_seed && s < shards; ++s) {
        const std::uint64_t draw = mix(*sabotage_seed * 1337 + s);
        if (draw % 3 == 0)
            continue; // this slot stays healthy
        faultinject::ShardFaultPlan plan;
        plan.fault = faultinject::anyShardFault(draw >> 8);
        plan.after_jobs = static_cast<std::uint32_t>(draw >> 32) % 2;
        config.fault_plans[s] = plan;
        plan_desc += " slot" + std::to_string(s) + "=" +
                     faultinject::formatShardFaultPlan(plan);
    }
    SCOPED_TRACE("shards=" + std::to_string(shards) + " schedule:" +
                 (plan_desc.empty() ? " none" : plan_desc));

    shard::Swarm swarm(config);
    expectBitIdentical(swarm.runGrid(testGrid(), {}));
}

TEST(ShardMergeProperty, HealthyFleetsAreBitIdenticalToSerial)
{
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u})
        runSchedule(shards, std::nullopt,
                    "healthy" + std::to_string(shards));
}

TEST(ShardMergeProperty, SabotagedFleetsAreBitIdenticalToSerial)
{
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u})
        runSchedule(shards, 0xa5a5 + shards,
                    "chaos" + std::to_string(shards));
}

} // namespace
