/**
 * @file
 * End-to-end service tests over real Unix-domain sockets: multi-tenant
 * submission and streaming, admission and preflight rejections with
 * stable catalog IDs, disconnect isolation, graceful drain, and the
 * tentpole guarantee — a daemon SIGKILLed mid-grid restarts, resumes
 * every grid from its spool, and the combined results are bit-identical
 * to the same grid run by a standalone serial SweepRunner.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/config_io.hh"
#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "trace/spec_profiles.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"
#include "test_tmp.hh"

namespace
{

using namespace aurora;
namespace fs = std::filesystem;
namespace wire = serve::wire;

constexpr std::uint64_t RECV_TIMEOUT_MS = 120'000;

using aurora::test::tempPath;

/** In-process daemon: Server on its own thread, drained on stop(). */
class TestDaemon
{
  public:
    explicit TestDaemon(serve::ServerConfig config)
        : server_(std::make_unique<serve::Server>(std::move(config)))
    {
        thread_ = std::thread([this] { server_->run(); });
    }

    ~TestDaemon() { stop(); }

    serve::Server &server() { return *server_; }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_->requestDrain();
            thread_.join();
        }
    }

  private:
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
};

/** One wire client: connects and completes the Hello handshake. */
class Client
{
  public:
    Client(const std::string &socket_path, const std::string &tenant)
        : fd_(util::connectUnix(socket_path))
    {
        wire::sendFrame(fd_.get(), wire::encode(wire::HelloMsg{
                                       wire::PROTOCOL_VERSION, tenant}));
        const auto reply = recv();
        if (!reply)
            util::raiseError(util::SimErrorCode::BadWire,
                             "no Welcome from test daemon");
        welcome_ = wire::decodeWelcome(*reply);
    }

    const wire::WelcomeMsg &welcome() const { return welcome_; }

    void
    send(const std::string &payload)
    {
        wire::sendFrame(fd_.get(), payload);
    }

    std::optional<std::string>
    recv(std::uint64_t timeout_ms = RECV_TIMEOUT_MS)
    {
        return wire::recvFrame(fd_.get(), decoder_, timeout_ms);
    }

    void close() { fd_.reset(); }

  private:
    util::Fd fd_;
    wire::FrameDecoder decoder_;
    wire::WelcomeMsg welcome_;
};

/** Receive one frame, failing the test cleanly on a peer close. */
std::string
mustRecv(Client &client)
{
    auto payload = client.recv();
    if (!payload)
        util::raiseError(util::SimErrorCode::BadWire,
                         "daemon closed unexpectedly");
    return *std::move(payload);
}

struct GridStream
{
    std::map<std::uint64_t, harness::JournalRecord> records;
    wire::GridDoneMsg done;
};

/** Drain one grid's stream to GridDone, collecting Result records. */
GridStream
streamToDone(Client &client, std::uint64_t fingerprint)
{
    GridStream out;
    for (;;) {
        const auto payload = client.recv();
        if (!payload)
            util::raiseError(util::SimErrorCode::BadWire,
                             "daemon closed before GridDone");
        switch (wire::peekType(*payload)) {
          case wire::MsgType::Result: {
            const auto msg = wire::decodeResult(*payload);
            if (msg.fingerprint != fingerprint)
                break;
            auto record = harness::decodeJournalRecord(msg.record);
            out.records.emplace(record.job_index, std::move(record));
            break;
          }
          case wire::MsgType::GridDone: {
            const auto msg = wire::decodeGridDone(*payload);
            if (msg.fingerprint != fingerprint)
                break;
            out.done = msg;
            return out;
          }
          default:
            break;
        }
    }
}

serve::ServerConfig
baseConfig(const std::string &stem)
{
    serve::ServerConfig config;
    config.socket_path = tempPath(stem + ".sock");
    config.spool_dir = tempPath(stem + ".spool");
    config.workers = 2;
    fs::remove(config.socket_path);
    fs::remove_all(config.spool_dir);
    return config;
}

const char *SPEC = "model=small";

wire::SubmitMsg
smallSubmit(const std::vector<std::string> &profiles,
            std::uint64_t insts, std::uint64_t base_seed)
{
    const auto machine =
        core::describe(core::parseMachineSpec(SPEC));
    wire::SubmitMsg submit;
    submit.has_base_seed = true;
    submit.base_seed = base_seed;
    for (const auto &p : profiles)
        submit.jobs.push_back({machine, p, insts});
    return submit;
}

/** The same grid, run by a standalone serial SweepRunner. */
std::vector<harness::SweepOutcome>
runSerial(const std::vector<std::string> &profiles, std::uint64_t insts,
          std::uint64_t base_seed)
{
    std::vector<harness::SweepJob> jobs;
    const auto machine = core::parseMachineSpec(SPEC);
    for (const auto &p : profiles)
        jobs.push_back({machine, trace::profileByName(p), insts});
    harness::SweepOptions options;
    options.workers = 1;
    options.base_seed = base_seed;
    options.preflight = false;
    harness::SweepRunner runner(options);
    return runner.runOutcomes(jobs);
}

void
expectBitIdentical(const GridStream &stream,
                   const std::vector<harness::SweepOutcome> &serial)
{
    ASSERT_EQ(stream.records.size(), serial.size());
    for (const auto &[index, record] : stream.records) {
        SCOPED_TRACE("job " + std::to_string(index));
        ASSERT_LT(index, serial.size());
        ASSERT_TRUE(record.outcome.ok);
        ASSERT_TRUE(serial[index].ok);
        EXPECT_EQ(harness::runResultBytes(record.outcome.result),
                  harness::runResultBytes(serial[index].result));
    }
}

TEST(ServeServer, SubmitStreamsBitIdenticalToStandaloneRunner)
{
    const std::vector<std::string> profiles = {"espresso", "li",
                                               "eqntott"};
    auto config = baseConfig("serve_submit");
    TestDaemon daemon(std::move(config));
    Client client(daemon.server().socketPath(), "alice");
    EXPECT_FALSE(client.welcome().draining);

    client.send(wire::encode(smallSubmit(profiles, 3000, 42)));
    const auto reply = client.recv();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(wire::peekType(*reply), wire::MsgType::Accepted);
    const auto accepted = wire::decodeAccepted(*reply);
    EXPECT_EQ(accepted.jobs, profiles.size());
    EXPECT_FALSE(accepted.attached);

    const GridStream stream =
        streamToDone(client, accepted.fingerprint);
    EXPECT_EQ(stream.done.ok, profiles.size());
    EXPECT_EQ(stream.done.failed, 0u);
    EXPECT_EQ(stream.done.resumed, 0u);
    expectBitIdentical(stream, runSerial(profiles, 3000, 42));

    // The daemon journaled exactly what it streamed.
    char name[32];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(accepted.fingerprint));
    const auto journal = harness::loadJournal(
        tempPath("serve_submit.spool") + "/" + name + ".ajrn");
    EXPECT_EQ(journal.records.size(), profiles.size());
}

TEST(ServeServer, DuplicateFingerprintRejectedAndAttachReplays)
{
    const std::vector<std::string> profiles = {"espresso", "li"};
    TestDaemon daemon(baseConfig("serve_dup"));
    Client client(daemon.server().socketPath(), "alice");

    client.send(wire::encode(smallSubmit(profiles, 2000, 7)));
    const auto accepted = wire::decodeAccepted(mustRecv(client));
    const GridStream first = streamToDone(client, accepted.fingerprint);
    EXPECT_EQ(first.done.ok, profiles.size());

    // Same grid again: duplicate fingerprint, AUR206.
    Client dup(daemon.server().socketPath(), "alice");
    dup.send(wire::encode(smallSubmit(profiles, 2000, 7)));
    const auto rejection = dup.recv();
    ASSERT_TRUE(rejection.has_value());
    ASSERT_EQ(wire::peekType(*rejection), wire::MsgType::Rejected);
    EXPECT_EQ(wire::decodeRejected(*rejection).id, "AUR206");

    // Attach on the same session replays every journaled record.
    dup.send(wire::encode(wire::AttachMsg{accepted.fingerprint}));
    const auto attach_reply = dup.recv();
    ASSERT_TRUE(attach_reply.has_value());
    const auto attached = wire::decodeAccepted(*attach_reply);
    EXPECT_TRUE(attached.attached);
    EXPECT_EQ(attached.done, profiles.size());
    const GridStream replay = streamToDone(dup, accepted.fingerprint);
    ASSERT_EQ(replay.records.size(), first.records.size());
    for (const auto &[index, record] : replay.records) {
        const auto &live = first.records.at(index);
        EXPECT_EQ(harness::runResultBytes(record.outcome.result),
                  harness::runResultBytes(live.outcome.result));
    }
}

TEST(ServeServer, CrossTenantAttachAndCancelAreUnknown)
{
    TestDaemon daemon(baseConfig("serve_xtenant"));
    Client alice(daemon.server().socketPath(), "alice");
    alice.send(wire::encode(smallSubmit({"espresso"}, 2000, 1)));
    const auto accepted = wire::decodeAccepted(mustRecv(alice));

    // Another tenant cannot see (or even probe) alice's grid.
    Client mallory(daemon.server().socketPath(), "mallory");
    mallory.send(wire::encode(wire::AttachMsg{accepted.fingerprint}));
    const auto attach_reply = mallory.recv();
    ASSERT_EQ(wire::peekType(*attach_reply), wire::MsgType::Rejected);
    EXPECT_EQ(wire::decodeRejected(*attach_reply).id, "AUR208");

    mallory.send(wire::encode(wire::CancelMsg{accepted.fingerprint}));
    const auto cancel_reply = mallory.recv();
    ASSERT_EQ(wire::peekType(*cancel_reply), wire::MsgType::Rejected);
    EXPECT_EQ(wire::decodeRejected(*cancel_reply).id, "AUR208");

    // Alice's grid is undisturbed by the probes.
    const GridStream stream = streamToDone(alice, accepted.fingerprint);
    EXPECT_EQ(stream.done.ok, 1u);
}

TEST(ServeServer, PreflightRejectionCarriesLintIdSessionSurvives)
{
    TestDaemon daemon(baseConfig("serve_preflight"));
    Client client(daemon.server().socketPath(), "alice");

    // fp_buses=0 is the structural-deadlock configuration the static
    // linter refuses (AUR010) — admission must surface the lint ID.
    wire::SubmitMsg bad = smallSubmit({"espresso"}, 2000, 3);
    bad.jobs[0].machine_spec =
        core::describe(core::parseMachineSpec("fp_buses=0"));
    client.send(wire::encode(bad));
    const auto rejection = client.recv();
    ASSERT_TRUE(rejection.has_value());
    ASSERT_EQ(wire::peekType(*rejection), wire::MsgType::Rejected);
    const auto rejected = wire::decodeRejected(*rejection);
    EXPECT_EQ(rejected.id, "AUR010");
    EXPECT_EQ(rejected.code, util::SimErrorCode::BadConfig);

    // A rejection is not fatal to the session: a clean submission on
    // the same connection still completes.
    client.send(wire::encode(smallSubmit({"espresso"}, 2000, 3)));
    const auto reply = client.recv();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(wire::peekType(*reply), wire::MsgType::Accepted);
    const auto accepted = wire::decodeAccepted(*reply);
    const GridStream stream = streamToDone(client, accepted.fingerprint);
    EXPECT_EQ(stream.done.ok, 1u);
}

TEST(ServeServer, QuotaRejectionLeavesOtherTenantsUndisturbed)
{
    auto config = baseConfig("serve_quota");
    config.limits.grids_per_tenant = 1;
    config.workers = 1;
    TestDaemon daemon(std::move(config));

    // Alice occupies her single grid slot with slow work.
    Client alice(daemon.server().socketPath(), "alice");
    alice.send(wire::encode(smallSubmit(
        {"espresso", "li", "eqntott"}, 200'000, 11)));
    const auto first = wire::decodeAccepted(mustRecv(alice));

    // Her second submission is over quota...
    Client alice2(daemon.server().socketPath(), "alice");
    alice2.send(wire::encode(smallSubmit({"sc"}, 2000, 12)));
    const auto rejection = alice2.recv();
    ASSERT_EQ(wire::peekType(*rejection), wire::MsgType::Rejected);
    EXPECT_EQ(wire::decodeRejected(*rejection).id, "AUR201");

    // ...while bob is admitted and completes despite the overload.
    Client bob(daemon.server().socketPath(), "bob");
    bob.send(wire::encode(smallSubmit({"sc"}, 2000, 13)));
    const auto bob_reply = bob.recv();
    ASSERT_EQ(wire::peekType(*bob_reply), wire::MsgType::Accepted);
    const auto bob_accepted = wire::decodeAccepted(*bob_reply);
    const GridStream bob_stream =
        streamToDone(bob, bob_accepted.fingerprint);
    EXPECT_EQ(bob_stream.done.ok, 1u);

    // Alice's grid still runs to completion afterwards.
    const GridStream stream = streamToDone(alice, first.fingerprint);
    EXPECT_EQ(stream.done.ok, 3u);
}

TEST(ServeServer, DisconnectCancelsOwnGridOnly)
{
    auto config = baseConfig("serve_disc");
    config.workers = 1;
    TestDaemon daemon(std::move(config));

    // Alice's grid is slow and marked cancel-on-disconnect.
    auto alice_submit =
        smallSubmit({"espresso", "li", "eqntott"}, 400'000, 21);
    alice_submit.cancel_on_disconnect = true;
    auto alice = std::make_unique<Client>(
        daemon.server().socketPath(), "alice");
    alice->send(wire::encode(alice_submit));
    const auto alice_accepted = wire::decodeAccepted(mustRecv(*alice));

    Client bob(daemon.server().socketPath(), "bob");
    bob.send(wire::encode(smallSubmit({"sc"}, 2000, 22)));
    const auto bob_accepted = wire::decodeAccepted(mustRecv(bob));

    // Alice vanishes; her queued jobs cancel, bob's grid must not
    // notice.
    alice.reset();
    const GridStream bob_stream =
        streamToDone(bob, bob_accepted.fingerprint);
    EXPECT_EQ(bob_stream.done.ok, 1u);
    EXPECT_EQ(bob_stream.done.cancelled, 0u);

    // Re-attach as alice: the grid reached a terminal state with its
    // queued jobs cancelled (the running one may have finished ok).
    Client alice2(daemon.server().socketPath(), "alice");
    alice2.send(
        wire::encode(wire::AttachMsg{alice_accepted.fingerprint}));
    const auto attach_reply = alice2.recv();
    ASSERT_EQ(wire::peekType(*attach_reply), wire::MsgType::Accepted);
    const GridStream alice_stream =
        streamToDone(alice2, alice_accepted.fingerprint);
    EXPECT_GE(alice_stream.done.cancelled, 1u);
    EXPECT_EQ(alice_stream.done.ok + alice_stream.done.cancelled, 3u);
    for (const auto &[index, record] : alice_stream.records) {
        if (!record.outcome.ok) {
            EXPECT_EQ(record.outcome.code,
                      util::SimErrorCode::Cancelled)
                << "job " << index;
        }
    }
}

TEST(ServeServer, DrainPersistsQueuedWorkForTheNextIncarnation)
{
    auto config = baseConfig("serve_drain");
    config.workers = 1;
    const auto socket_path = config.socket_path;
    const auto spool_dir = config.spool_dir;
    const std::vector<std::string> profiles = {"espresso", "li",
                                               "eqntott", "sc"};

    std::uint64_t fingerprint = 0;
    {
        TestDaemon daemon(std::move(config));
        Client client(daemon.server().socketPath(), "alice");
        client.send(wire::encode(smallSubmit(profiles, 150'000, 31)));
        const auto accepted = wire::decodeAccepted(mustRecv(client));
        fingerprint = accepted.fingerprint;
        // Drain immediately: at most the running job completes; the
        // rest must persist in the spool.
        daemon.stop();
    }

    serve::ServerConfig next;
    next.socket_path = socket_path;
    next.spool_dir = spool_dir;
    next.workers = 2;
    TestDaemon daemon(std::move(next));
    EXPECT_EQ(daemon.server().resumedGrids(), 1u);

    Client client(daemon.server().socketPath(), "alice");
    client.send(wire::encode(wire::AttachMsg{fingerprint}));
    const auto reply = client.recv();
    ASSERT_EQ(wire::peekType(*reply), wire::MsgType::Accepted);
    const GridStream stream = streamToDone(client, fingerprint);
    EXPECT_EQ(stream.done.ok, profiles.size());
    expectBitIdentical(stream, runSerial(profiles, 150'000, 31));
}

TEST(ServeServer, ClientTraceIdSurvivesRestart)
{
    auto config = baseConfig("serve_trace_restart");
    config.workers = 1;
    const auto socket_path = config.socket_path;
    const auto spool_dir = config.spool_dir;
    const std::vector<std::string> profiles = {"espresso", "li",
                                               "eqntott"};
    constexpr std::uint64_t TRACE = 0x5eed7ace5eed7aceull;

    std::uint64_t fingerprint = 0;
    {
        TestDaemon daemon(std::move(config));
        Client client(socket_path, "alice");
        auto submit = smallSubmit(profiles, 150'000, 53);
        submit.trace_id = TRACE;
        client.send(wire::encode(submit));
        const auto accepted = wire::decodeAccepted(mustRecv(client));
        EXPECT_EQ(accepted.trace_id, TRACE);
        fingerprint = accepted.fingerprint;
        daemon.stop(); // mid-grid: queued jobs persist in the spool
    }

    // The restarted daemon must resume the grid in the client's
    // trace, not re-mint one from the fingerprint.
    serve::ServerConfig next;
    next.socket_path = socket_path;
    next.spool_dir = spool_dir;
    next.workers = 2;
    TestDaemon daemon(std::move(next));
    ASSERT_EQ(daemon.server().resumedGrids(), 1u);
    Client client(socket_path, "alice");
    client.send(wire::encode(wire::AttachMsg{fingerprint}));
    const auto accepted = wire::decodeAccepted(mustRecv(client));
    EXPECT_TRUE(accepted.attached);
    EXPECT_EQ(accepted.trace_id, TRACE);
    EXPECT_EQ(streamToDone(client, fingerprint).done.ok,
              profiles.size());
}

TEST(ServeServer, SigkillMidGridResumesBitIdentical)
{
    const auto socket_path = tempPath("serve_kill.sock");
    const auto spool_dir = tempPath("serve_kill.spool");
    fs::remove(socket_path);
    fs::remove_all(spool_dir);
    const std::vector<std::string> profiles = {"espresso", "li",
                                               "eqntott", "sc"};

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Daemon incarnation #1 — runs until SIGKILL.
        try {
            serve::ServerConfig config;
            config.socket_path = socket_path;
            config.spool_dir = spool_dir;
            config.workers = 1;
            serve::Server server(std::move(config));
            server.run();
        } catch (...) {
        }
        _exit(0);
    }

    // Wait for the child's socket, submit, and collect at least one
    // live result so the journal is non-empty at the kill.
    std::uint64_t fingerprint = 0;
    {
        int tries = 0;
        while (!fs::exists(socket_path) && ++tries < 200)
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
        ASSERT_TRUE(fs::exists(socket_path));
        Client client(socket_path, "alice");
        client.send(wire::encode(smallSubmit(profiles, 150'000, 77)));
        const auto accepted = wire::decodeAccepted(mustRecv(client));
        fingerprint = accepted.fingerprint;
        bool got_result = false;
        while (!got_result) {
            const auto payload = client.recv();
            ASSERT_TRUE(payload.has_value());
            got_result =
                wire::peekType(*payload) == wire::MsgType::Result;
        }
    }
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Incarnation #2: the spool must resume the grid — journaled jobs
    // replay, missing jobs re-run — and the union must be
    // bit-identical to an uninterrupted serial run.
    serve::ServerConfig config;
    config.socket_path = socket_path;
    config.spool_dir = spool_dir;
    config.workers = 2;
    TestDaemon daemon(std::move(config));
    EXPECT_EQ(daemon.server().resumedGrids(), 1u);
    EXPECT_GE(daemon.server().resumedJobs(), 1u);

    Client client(socket_path, "alice");
    client.send(wire::encode(wire::AttachMsg{fingerprint}));
    const auto reply = client.recv();
    ASSERT_EQ(wire::peekType(*reply), wire::MsgType::Accepted);
    const GridStream stream = streamToDone(client, fingerprint);
    EXPECT_EQ(stream.done.ok, profiles.size());
    EXPECT_GE(stream.done.resumed, 1u);
    expectBitIdentical(stream, runSerial(profiles, 150'000, 77));
}

TEST(ServeServer, ResumeReauditsJournaledResults)
{
    auto config = baseConfig("serve_audit_resume");
    const auto socket_path = config.socket_path;
    const auto spool_dir = config.spool_dir;
    const std::vector<std::string> profiles = {"espresso", "li",
                                               "eqntott"};

    std::uint64_t fingerprint = 0;
    {
        TestDaemon daemon(std::move(config));
        Client client(socket_path, "alice");
        client.send(wire::encode(smallSubmit(profiles, 3000, 61)));
        fingerprint = wire::decodeAccepted(mustRecv(client)).fingerprint;
        ASSERT_EQ(streamToDone(client, fingerprint).done.ok,
                  profiles.size());
    }

    // Rot one journaled result: a miscounted stall, re-encoded so its
    // record is CRC-valid and only the audit can tell.
    char name[32];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    const std::string journal_path =
        spool_dir + "/" + name + ".ajrn";
    harness::LoadedJournal loaded = harness::loadJournal(journal_path);
    ASSERT_EQ(loaded.records.size(), profiles.size());
    faultinject::miscountStall(loaded.records[1].outcome.result, 7);
    {
        harness::JournalWriter rewrite(journal_path, loaded.fingerprint,
                                       loaded.jobs);
        for (const harness::JournalRecord &rec : loaded.records)
            rewrite.append(rec);
    }

    // Under AURORA_AUDIT the restarted daemon must reject the record
    // and rerun the grid, not replay the bad result. The suite's own
    // AURORA_AUDIT setting comes back on scope exit.
    struct RestoreAudit
    {
        const char *old = std::getenv("AURORA_AUDIT");
        std::string saved = old ? old : "";
        ~RestoreAudit()
        {
            if (old)
                setenv("AURORA_AUDIT", saved.c_str(), 1);
            else
                unsetenv("AURORA_AUDIT");
        }
    } restore_audit;
    ASSERT_EQ(setenv("AURORA_AUDIT", "1", 1), 0);
    serve::ServerConfig next;
    next.socket_path = socket_path;
    next.spool_dir = spool_dir;
    next.workers = 2;
    TestDaemon daemon(std::move(next));
    EXPECT_EQ(daemon.server().resumedGrids(), 1u);
    EXPECT_EQ(daemon.server().resumedJobs(), 0u);

    Client client(socket_path, "alice");
    client.send(wire::encode(wire::AttachMsg{fingerprint}));
    ASSERT_EQ(wire::peekType(mustRecv(client)), wire::MsgType::Accepted);
    const GridStream stream = streamToDone(client, fingerprint);
    EXPECT_EQ(stream.done.ok, profiles.size());
    EXPECT_EQ(stream.done.resumed, 0u);
    expectBitIdentical(stream, runSerial(profiles, 3000, 61));
}

TEST(ServeServer, StatusReportCountsWork)
{
    TestDaemon daemon(baseConfig("serve_status"));
    Client client(daemon.server().socketPath(), "alice");
    client.send(wire::encode(smallSubmit({"espresso"}, 2000, 41)));
    const auto accepted = wire::decodeAccepted(mustRecv(client));
    streamToDone(client, accepted.fingerprint);

    client.send(wire::encode(wire::StatusMsg{}));
    for (;;) {
        const auto payload = client.recv();
        ASSERT_TRUE(payload.has_value());
        if (wire::peekType(*payload) != wire::MsgType::StatusReport)
            continue; // late Progress frames from the finished grid
        const auto status = wire::decodeStatusReport(*payload);
        EXPECT_FALSE(status.draining);
        EXPECT_EQ(status.grids, 1u);
        EXPECT_EQ(status.done_grids, 1u);
        EXPECT_EQ(status.done_jobs, 1u);
        EXPECT_EQ(status.running_jobs, 0u);
        break;
    }

    const auto stats = daemon.server().stats();
    EXPECT_EQ(stats.done_grids, 1u);
    EXPECT_EQ(stats.sessions, 1u);
}

TEST(ServeServer, ProtocolViolationIsFatalWithAur207)
{
    TestDaemon daemon(baseConfig("serve_proto"));
    // Submitting before Hello is a protocol violation.
    util::Fd fd = util::connectUnix(daemon.server().socketPath());
    wire::sendFrame(fd.get(),
                    wire::encode(smallSubmit({"espresso"}, 2000, 51)));
    wire::FrameDecoder decoder;
    const auto reply = wire::recvFrame(fd.get(), decoder,
                                       RECV_TIMEOUT_MS);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(wire::peekType(*reply), wire::MsgType::Rejected);
    EXPECT_EQ(wire::decodeRejected(*reply).id, "AUR207");
    // The daemon then drops the session.
    EXPECT_FALSE(
        wire::recvFrame(fd.get(), decoder, RECV_TIMEOUT_MS).has_value());
}

TEST(ServeServer, V1HelloIsRefusedWithAur207)
{
    TestDaemon daemon(baseConfig("serve_v1"));
    util::Fd fd = util::connectUnix(daemon.server().socketPath());
    wire::sendFrame(fd.get(), wire::encode(wire::HelloMsg{1, "alice"}));
    wire::FrameDecoder decoder;
    const auto reply = wire::recvFrame(fd.get(), decoder,
                                       RECV_TIMEOUT_MS);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(wire::peekType(*reply), wire::MsgType::Rejected);
    const auto rejected = wire::decodeRejected(*reply);
    EXPECT_EQ(rejected.id, "AUR207");
    EXPECT_NE(rejected.message.find("version 1"), std::string::npos)
        << rejected.message;
    EXPECT_FALSE(
        wire::recvFrame(fd.get(), decoder, RECV_TIMEOUT_MS).has_value());
}

} // namespace
