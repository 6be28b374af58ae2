/**
 * @file
 * Coordinator supervision tests: lease fencing and migration under
 * each scripted ShardFault, the zombie-append refusal (AUR304), one
 * shard running a trace group as one lockstep unit, one grid per
 * Swarm, the commit journal's resume path, configuration
 * rejection, a fleet lost once its respawn budget is spent, and the
 * refusal of a foreign protocol version (AUR305).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/flight.hh"
#include "shard/shard_wire.hh"
#include "shard/swarm.hh"
#include "trace/spec_profiles.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;
using aurora::util::SimError;
using aurora::util::SimErrorCode;
using faultinject::ShardFault;
using faultinject::ShardFaultPlan;

std::string
tempPath(const std::string &name)
{
    return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<harness::SweepJob>
testGrid(Count insts = 2000)
{
    const core::MachineConfig machine =
        core::parseMachineSpec("model=small");
    return harness::suiteJobs(machine, trace::integerSuite(), insts);
}

/**
 * A grid for faults that must land mid-grid. A shard beats while it
 * simulates, so no unit length threatens the 400 ms lease; three
 * machines per trace make units of three jobs, and the eighteen jobs
 * together outlast the lease and the 250 ms respawn throttle with
 * margin, even on a fast host.
 */
std::vector<harness::SweepJob>
longGrid()
{
    constexpr Count INSTS = 600'000;
    auto grid = testGrid(INSTS);
    for (const char *spec : {"model=baseline", "model=large"}) {
        const auto more = harness::suiteJobs(
            core::parseMachineSpec(spec), trace::integerSuite(), INSTS);
        grid.insert(grid.end(), more.begin(), more.end());
    }
    return grid;
}

shard::SwarmConfig
baseConfig(const std::string &tag)
{
    shard::SwarmConfig config;
    config.socket_path = tempPath("swarm-" + tag + ".sock");
    config.journal_dir = tempPath("swarm-" + tag + ".jd");
    fs::remove(config.socket_path);
    fs::remove_all(config.journal_dir);
    config.shards = 2;
    config.lease_ms = 400;
    return config;
}

void
expectAllOk(const std::vector<harness::SweepOutcome> &outcomes,
            std::size_t n)
{
    ASSERT_EQ(outcomes.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    }
}

TEST(SwarmSupervision, KillShardFencesMigratesAndRecovers)
{
    shard::SwarmConfig config = baseConfig("kill");
    config.fault_plans = {ShardFaultPlan{ShardFault::KillShard, 1},
                          std::nullopt};
    shard::Swarm swarm(config);
    // A grid long enough that the backlog outlives the respawn
    // throttle — the replacement worker must actually be needed.
    const auto grid = longGrid();
    expectAllOk(swarm.runGrid(grid, {}), grid.size());

    const shard::SwarmStats &stats = swarm.stats();
    EXPECT_GE(stats.shard_exits, 1u);
    EXPECT_GE(stats.migrated_jobs, 1u);
    EXPECT_GE(stats.respawns, 1u);
    EXPECT_EQ(stats.committed, grid.size());
    EXPECT_FALSE(swarm.fencedEpochs().empty());
}

TEST(SwarmSupervision, ZombieAppendIsFencedAndRefused)
{
    shard::SwarmConfig config = baseConfig("zombie");
    config.fault_plans = {
        ShardFaultPlan{ShardFault::ZombieAppend, 1}, std::nullopt};
    shard::Swarm swarm(config);
    const auto grid = testGrid();
    expectAllOk(swarm.runGrid(grid, {}), grid.size());

    const shard::SwarmStats &stats = swarm.stats();
    // The zombie's lease expired (it went silent past the lease)...
    EXPECT_GE(stats.lease_expiries, 1u);
    // ...its unfinished work moved to live shards...
    EXPECT_GE(stats.migrated_jobs, 1u);
    // ...and its post-fence Result was refused over the wire, not
    // merely ignored: exactly-once held by *refusal*, not luck.
    EXPECT_GE(stats.fenced_results, 1u);
    EXPECT_EQ(stats.committed, grid.size());
    EXPECT_FALSE(swarm.fencedEpochs().empty());
}

TEST(SwarmSupervision, DropHeartbeatsIsFencedWhileResultsFlow)
{
    // A one-way partition: the shard keeps producing but stops
    // beating. Results do NOT renew the lease, so the fence must
    // fire even though traffic is flowing.
    shard::SwarmConfig config = baseConfig("partition");
    config.fault_plans = {
        ShardFaultPlan{ShardFault::DropHeartbeats, 0}, std::nullopt};
    shard::Swarm swarm(config);
    // A grid long enough that the silent shard cannot drain it inside
    // one lease — the fence must catch it mid-flight.
    const auto grid = longGrid();
    expectAllOk(swarm.runGrid(grid, {}), grid.size());
    EXPECT_GE(swarm.stats().lease_expiries, 1u);
    EXPECT_EQ(swarm.stats().committed, grid.size());
}

TEST(SwarmSupervision, OneShardRunsATraceGroupAsOneUnit)
{
    // One trace replayed by six machines: the coordinator deals the
    // whole group as one unit, and the shard simulates it over one
    // synthesized stream (one unit.done note listing all six jobs).
    std::vector<harness::SweepJob> grid;
    for (const core::MachineConfig &model : core::studyModels())
        for (const unsigned issue : {1u, 2u})
            grid.push_back(
                {model.withIssueWidth(issue), trace::espresso(), 2000});
    shard::SwarmConfig config = baseConfig("lockstep");
    config.shards = 1;
    config.flight_dir = tempPath("swarm-lockstep.obs");
    fs::remove_all(config.flight_dir);
    shard::Swarm swarm(config);
    const auto outcomes = swarm.runGrid(grid, {});

    harness::SweepOptions serial;
    serial.workers = 1;
    const auto want = harness::SweepRunner(serial).runOutcomes(grid);
    ASSERT_EQ(outcomes.size(), want.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(harness::runResultBytes(outcomes[i].result),
                  harness::runResultBytes(want[i].result))
            << "job " << i;
    }

    std::vector<std::string> units;
    for (const auto &entry : fs::directory_iterator(config.flight_dir))
        if (entry.path().extension() == ".flight" &&
            entry.path().filename().string().starts_with("shard-"))
            for (const obs::FlightEvent &event :
                 obs::loadFlightFile(entry.path().string()).events)
                if (event.event == "unit.done")
                    units.push_back(event.detail);
    EXPECT_EQ(units, std::vector<std::string>{"jobs=0,1,2,3,4,5"});
    EXPECT_EQ(swarm.stats().committed, grid.size());
}

TEST(SwarmSupervision, SecondGridOnOneSwarmPanics)
{
    // A Swarm runs one grid; a caller with another builds another.
    shard::Swarm swarm(baseConfig("once"));
    EXPECT_TRUE(swarm.runGrid({}, {}).empty());
    EXPECT_DEATH((void)swarm.runGrid({}, {}), "one grid");
}

TEST(SwarmSupervision, CommitJournalResumeReplaysWithoutShards)
{
    const auto grid = testGrid();
    const std::string journal = tempPath("swarm-resume.ajrn");
    fs::remove(journal);

    shard::GridOptions options;
    options.journal = journal;
    {
        shard::Swarm swarm(baseConfig("resume1"));
        expectAllOk(swarm.runGrid(grid, options), grid.size());
    }

    // Second run resumes: every job replays from the commit journal,
    // no shard ever executes anything.
    options.resume = true;
    shard::Swarm swarm(baseConfig("resume2"));
    const auto outcomes = swarm.runGrid(grid, options);
    expectAllOk(outcomes, grid.size());
    EXPECT_EQ(swarm.stats().resumed, grid.size());
    EXPECT_EQ(swarm.stats().committed, 0u);
    EXPECT_EQ(swarm.stats().granted_leases, 0u);
    for (const harness::SweepOutcome &out : outcomes)
        EXPECT_TRUE(out.resumed);
}

TEST(SwarmSupervision, ZeroShardsIsBadConfig)
{
    shard::SwarmConfig config = baseConfig("zero");
    config.shards = 0;
    try {
        shard::Swarm swarm(config);
        FAIL() << "shards=0 accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadConfig);
    }
}

TEST(SwarmSupervision, ExecModeWithoutBinaryIsBadConfig)
{
    shard::SwarmConfig config = baseConfig("nobin");
    config.spawn = shard::SpawnMode::Exec;
    try {
        shard::Swarm swarm(config);
        FAIL() << "exec mode without --shardd accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadConfig);
    }
}

TEST(SwarmSupervision, ExecFleetWithoutABinaryIsLost)
{
    // Every exec fails, so no worker ever dials: the coordinator
    // spends its whole respawn budget, then gives the grid up.
    shard::SwarmConfig config = baseConfig("nobinary");
    config.spawn = shard::SpawnMode::Exec;
    config.shardd_path = tempPath("no-such-aurora_shardd");
    fs::remove(config.shardd_path);
    shard::Swarm swarm(config);
    try {
        (void)swarm.runGrid(testGrid(), {});
        FAIL() << "grid completed with no workers";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("fleet lost"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(swarm.stats().respawns, 8u);
    EXPECT_EQ(swarm.stats().granted_leases, 0u);
}

TEST(SwarmSupervision, V1HelloIsRefusedWithAur305)
{
    // A dialer speaking protocol v1 gets no lease: the coordinator
    // closes the connection without a Welcome and counts a protocol
    // error, while its own fleet runs the grid. The listener is bound
    // at construction, so the dialer's Hello waits in the socket until
    // runGrid starts polling.
    shard::SwarmConfig config = baseConfig("v1");
    shard::Swarm swarm(config);
    const util::Fd fd = util::connectUnix(config.socket_path);
    shard::wire::sendFrame(fd.get(),
                           shard::wire::encode(shard::wire::HelloMsg{1, 7}));

    const auto grid = testGrid();
    expectAllOk(swarm.runGrid(grid, {}), grid.size());
    EXPECT_EQ(swarm.stats().protocol_errors, 1u);
    EXPECT_EQ(swarm.stats().granted_leases, 2u);
    shard::wire::FrameDecoder decoder;
    EXPECT_FALSE(util::recvFrame(fd.get(), decoder, 60'000).has_value());
}

} // namespace
