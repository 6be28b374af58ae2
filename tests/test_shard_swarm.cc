/**
 * @file
 * Coordinator supervision tests: lease fencing and migration under
 * each scripted ShardFault, the zombie-append refusal (AUR304), one
 * shard running a trace group as one lockstep unit, one grid per
 * Swarm, the commit journal's resume path, configuration
 * rejection, a fleet lost once its respawn budget is spent, and the
 * refusals of AUR305: a foreign protocol version, and each bad Result
 * a leased dialer can send; and a worker dismissed by a full fleet.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/flight.hh"
#include "shard/shard_journal.hh"
#include "shard/shard_wire.hh"
#include "shard/shardd.hh"
#include "shard/swarm.hh"
#include "trace/spec_profiles.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"
#include "test_tmp.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;
using aurora::util::SimError;
using aurora::util::SimErrorCode;
using faultinject::ShardFault;
using faultinject::ShardFaultPlan;

using aurora::test::tempPath;

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
    // An unloaded host runs longGrid() in ~0.3 s: a lease well under
    // that keeps the silent shard from draining the grid inside one
    // lease, so the fence must catch it mid-flight.
    config.lease_ms = 150;
    shard::Swarm swarm(config);
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

TEST(SwarmSupervision, OlderHellosAreRefusedWithAur305)
{
    // Dialers speaking protocols v1 and v2 get no lease: the
    // coordinator closes each connection without a Welcome and counts
    // a protocol error, while its own fleet runs the grid. The
    // listener is bound at construction, so the dialers' Hellos wait
    // in the socket until runGrid starts polling.
    shard::SwarmConfig config = baseConfig("v1");
    shard::Swarm swarm(config);
    std::vector<util::Fd> dialers;
    for (const std::uint32_t version : {1u, 2u}) {
        dialers.push_back(util::connectUnix(config.socket_path));
        shard::wire::sendFrame(
            dialers.back().get(),
            shard::wire::encode(shard::wire::HelloMsg{version, 7}));
    }

    const auto grid = testGrid();
    expectAllOk(swarm.runGrid(grid, {}), grid.size());
    EXPECT_EQ(swarm.stats().protocol_errors, 2u);
    EXPECT_EQ(swarm.stats().granted_leases, 2u);
    for (const util::Fd &fd : dialers) {
        shard::wire::FrameDecoder decoder;
        EXPECT_FALSE(util::recvFrame(fd.get(), decoder, 60'000).has_value());
    }
}

TEST(ShardWorker, DismissedByAFullFleetExitsOk)
{
    // A fleet with no free slot answers a worker's Hello with
    // Shutdown in place of Welcome; the worker leaves cleanly and
    // quietly.
    const std::string socket_path = tempPath("dismiss.sock");
    fs::remove(socket_path);
    const util::Fd listener = util::listenUnix(socket_path);
    shard::ShardWorkerConfig worker;
    worker.socket_path = socket_path;
    worker.journal_dir = tempPath("dismiss.jd");
    ::testing::internal::CaptureStderr();
    std::future<int> exit_code = std::async(
        std::launch::async, [&] { return shard::runShardWorker(worker); });

    pollfd pfd{listener.get(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 60'000), 1);
    const util::Fd conn = util::acceptConn(listener.get());
    ASSERT_TRUE(conn.valid());
    shard::wire::FrameDecoder decoder;
    const auto hello = util::recvFrame(conn.get(), decoder, 60'000);
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(shard::wire::peekType(*hello), shard::wire::MsgType::Hello);
    shard::wire::sendFrame(conn.get(),
                           shard::wire::encode(shard::wire::ShutdownMsg{}));

    EXPECT_EQ(exit_code.get(), shard::SHARD_EXIT_OK);
    const std::string errors = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(errors.find("handshake failed"), std::string::npos) << errors;
}

/** The bad Result a hand-driven dialer sends once it holds a lease. */
enum class BadResult
{
    /** A real record for a grid index dealt to no unit it holds. */
    UnassignedJob,
    /** A legitimate commit of its first job, then the same again. */
    SecondCommit,
    /** Record bytes that are no journal record. */
    Undecodable,
};

/**
 * The dialer's side, in a forked child: read Welcome and the first
 * Assign from @p fd (whose Hello is already sent), send the Results of
 * @p bad, and exit 0 once the coordinator answers Fenced for its
 * epoch. Every record it sends that decodes is journaled first, as a
 * real shard does.
 */
[[noreturn]] void
runBadDialer(int fd, BadResult bad,
             const std::vector<harness::SweepJob> &grid,
             const std::string &journal_dir)
{
    namespace wire = shard::wire;
    try {
        wire::FrameDecoder decoder;
        const auto recv = [&] {
            const auto payload = util::recvFrame(fd, decoder, 60'000);
            if (!payload)
                ::_exit(10);
            return *payload;
        };
        const wire::WelcomeMsg welcome = wire::decodeWelcome(recv());
        const wire::AssignMsg assign = wire::decodeAssign(recv());
        util::RecordFileWriter journal = shard::openShardJournal(
            shard::shardJournalPath(journal_dir, welcome.epoch),
            welcome.slot, welcome.epoch);
        const auto send = [&](const std::string &record) {
            wire::sendFrame(fd, wire::encode(wire::ResultMsg{
                                    welcome.slot, welcome.epoch, record}));
        };
        const auto runAndJournal = [&](std::size_t index) {
            const std::string record = harness::encodeJournalRecord(
                harness::runJob(grid[index], index, {}));
            journal.append(record);
            return record;
        };
        switch (bad) {
          case BadResult::UnassignedJob:
            // The last unit: two units in flight never reach it.
            send(runAndJournal(grid.size() - 1));
            break;
          case BadResult::SecondCommit: {
            const std::string record = runAndJournal(
                static_cast<std::size_t>(assign.jobs.front().job_index));
            send(record);
            send(record);
            break;
          }
          case BadResult::Undecodable:
            send("not a journal record");
            break;
        }
        for (;;) {
            const std::string payload = recv();
            if (wire::peekType(payload) == wire::MsgType::Fenced &&
                wire::decodeFenced(payload).epoch == welcome.epoch)
                ::_exit(0);
        }
    } catch (...) {
        ::_exit(11);
    }
}

class ResultRefusal : public ::testing::TestWithParam<BadResult>
{
};

TEST_P(ResultRefusal, DialerIsFencedAndItsUnitsMigrate)
{
    // Two machines per trace: six units of two jobs. The dialer's
    // Hello is queued before runGrid, so it takes the one slot ahead
    // of the forked worker (dismissed as surplus) and is dealt two
    // units; once it is fenced, a respawned worker runs the rest.
    std::vector<harness::SweepJob> grid;
    for (const char *spec : {"model=small", "model=baseline"}) {
        const auto row = harness::suiteJobs(core::parseMachineSpec(spec),
                                            trace::integerSuite(), 2000);
        grid.insert(grid.end(), row.begin(), row.end());
    }
    const BadResult bad = GetParam();
    shard::SwarmConfig config =
        baseConfig("refusal" + std::to_string(static_cast<int>(bad)));
    config.shards = 1;
    config.lease_ms = 5000; // a refusal, never a lease expiry
    shard::Swarm swarm(config);
    util::Fd fd = util::connectUnix(config.socket_path);
    shard::wire::sendFrame(fd.get(),
                           shard::wire::encode(shard::wire::HelloMsg{}));
    const pid_t dialer = ::fork();
    ASSERT_GE(dialer, 0);
    if (dialer == 0)
        runBadDialer(fd.get(), bad, grid, config.journal_dir);
    fd.reset();

    const auto outcomes = swarm.runGrid(grid, {});
    int status = 0;
    ASSERT_EQ(::waitpid(dialer, &status, 0), dialer);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "the dialer was not fenced (status " << status << ")";

    const shard::SwarmStats &stats = swarm.stats();
    EXPECT_EQ(stats.protocol_errors, 1u);
    EXPECT_EQ(stats.lease_expiries, 0u);
    EXPECT_EQ(swarm.fencedEpochs(), std::set<std::uint64_t>{1});
    // Both units move on, less the job the dialer committed.
    EXPECT_EQ(stats.migrated_jobs, bad == BadResult::SecondCommit ? 3u : 4u);
    EXPECT_EQ(stats.committed, grid.size());

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
}

INSTANTIATE_TEST_SUITE_P(
    SwarmSupervision, ResultRefusal,
    ::testing::Values(BadResult::UnassignedJob, BadResult::SecondCommit,
                      BadResult::Undecodable),
    [](const ::testing::TestParamInfo<BadResult> &param) {
        switch (param.param) {
          case BadResult::UnassignedJob:
            return "UnassignedJob";
          case BadResult::SecondCommit:
            return "SecondCommit";
          case BadResult::Undecodable:
            return "Undecodable";
        }
        return "Unknown";
    });

} // namespace
