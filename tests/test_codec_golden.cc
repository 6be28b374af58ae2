/**
 * @file
 * Golden bytes of every wire message and on-disk record: one payload
 * per AWP1 and ASW1 message type (with and without the v2 trailing
 * trace id where the message carries one), the spool manifest's
 * submit record and cancel marker, the sweep journal's header and
 * job records, the shard journal's header and entry, and
 * runResultBytes(). Round-trip tests cannot see a layout change that
 * the encoder and decoder make together; these can. The pinned hex
 * lives in codec_golden.hh, which test_codec_fuzz also reads.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "codec_golden.hh"
#include "harness/journal.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "shard/shard_journal.hh"
#include "shard/shard_wire.hh"
#include "util/record_io.hh"
#include "util/socket.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;
using aurora::test::goldenHex;
using aurora::test::toHex;
namespace awp = serve::wire;
namespace asw = shard::wire;

std::string
tempPath(const std::string &name)
{
    return (fs::path(::testing::TempDir()) / name).string();
}

/** Every complete record payload of a record file, in order. */
std::vector<std::string>
recordPayloads(const std::string &path)
{
    util::RecordFileReader reader(path);
    std::vector<std::string> payloads;
    std::string payload;
    while (reader.next(payload) == util::RecordStatus::Ok)
        payloads.push_back(payload);
    return payloads;
}

void
expectGolden(const char *name, const std::string &bytes)
{
    EXPECT_EQ(toHex(bytes), goldenHex(name)) << name;
}

/** A RunResult with every field distinct and nonzero. */
core::RunResult
sampleResult()
{
    core::RunResult r;
    r.model = "small";
    r.benchmark = "espresso";
    r.instructions = 400'000;
    r.cycles = 612'345;
    r.issuing_cycles = 301'000;
    r.tail_cycles = 17;
    for (std::size_t i = 0; i < r.stalls.size(); ++i)
        r.stalls[i] = 1000 + i;
    r.icache_hit_pct = 98.25;
    r.dcache_hit_pct = -0.0;
    r.iprefetch_hit_pct = 1e-300;
    r.dprefetch_hit_pct = std::numeric_limits<double>::infinity();
    r.write_cache_hit_pct = 0.1;
    r.stores = 41;
    r.store_transactions = 23;
    r.fp_dispatched = 5;
    r.fpu.issued = 6;
    r.fpu.dual_cycles = 7;
    r.fpu.blocked_operand = 8;
    r.fpu.blocked_unit = 9;
    r.fpu.blocked_rob = 10;
    r.fpu.blocked_bus = 11;
    r.fpu.loads = 12;
    r.fpu.stores = 13;
    r.rbe_cost = 123456.5;
    r.ledger.trace_instructions = 400'000;
    r.ledger.retired = 399'999;
    r.ledger.icache_hits = 14;
    r.ledger.icache_misses = 15;
    r.ledger.icache_accesses = 29;
    r.ledger.dcache_hits = 16;
    r.ledger.dcache_misses = 17;
    r.ledger.dcache_accesses = 33;
    r.ledger.mshr_allocations = 18;
    r.ledger.mshr_releases = 18;
    r.ledger.mshr_outstanding = 0;
    r.issue_width_cycles = {311'345, 200'000, 101'000};
    r.avg_rob_occupancy = 3.75;
    r.avg_mshr_occupancy = 0.5;
    std::uint64_t n = 20;
    for (core::OccupancyStats *o :
         {&r.rob_occupancy, &r.mshr_occupancy, &r.fp_instq_occupancy,
          &r.fp_loadq_occupancy, &r.fp_storeq_occupancy}) {
        o->mean = static_cast<double>(n) / 8.0;
        o->p50 = n++;
        o->p95 = n++;
        o->max = n++;
    }
    return r;
}

harness::JournalRecord
okRecord()
{
    harness::JournalRecord rec;
    rec.job_index = 5;
    rec.machine_hash = 0x1122334455667788ull;
    rec.seed = 0x0badc0ffee0ddf00ull;
    rec.outcome.result = sampleResult();
    rec.outcome.ok = true;
    rec.outcome.attempts = 2;
    rec.outcome.seconds = 0.25;
    return rec;
}

harness::JournalRecord
failedRecord()
{
    harness::JournalRecord rec;
    rec.job_index = 6;
    rec.machine_hash = 0x8877665544332211ull;
    rec.seed = 99;
    rec.outcome.ok = false;
    rec.outcome.code = util::SimErrorCode::Timeout;
    rec.outcome.error = "deadline exceeded";
    rec.outcome.attempts = 3;
    rec.outcome.seconds = 1.75;
    return rec;
}

awp::SubmitMsg
sampleSubmit()
{
    awp::SubmitMsg m;
    m.label = "nightly sweep";
    m.cancel_on_disconnect = true;
    m.has_base_seed = true;
    m.base_seed = 0xfeedfacecafebeefull;
    m.deadline_ms = 30'000;
    m.retries = 2;
    m.backoff_ms = 125;
    m.jobs.push_back({"model=small fp_policy=single", "espresso", 4000});
    m.jobs.push_back({"model=large", "tomcatv", 0});
    return m;
}

asw::JobSpec
sampleJob(std::uint64_t ticket)
{
    asw::JobSpec job;
    job.ticket = ticket;
    job.job_index = ticket - 1;
    job.machine_spec = "model=small fp_policy=single";
    job.profile_name = "espresso";
    job.profile_seed = 0x9e3779b97f4a7c15ull;
    job.instructions = 400'000;
    job.has_base_seed = true;
    job.base_seed = 0xfeedfacecafebeefull;
    job.deadline_ms = 30'000;
    job.retries = 2;
    job.backoff_ms = 125;
    return job;
}

constexpr std::uint64_t TRACE = 0x7ace7ace7ace7aceull;

TEST(CodecGolden, ServeMessages)
{
    expectGolden("awp1.Hello", awp::encode(awp::HelloMsg{2, "alice"}));
    awp::SubmitMsg submit = sampleSubmit();
    expectGolden("awp1.Submit", awp::encode(submit));
    submit.trace_id = TRACE;
    expectGolden("awp1.Submit.v2", awp::encode(submit));
    expectGolden("awp1.Attach",
                 awp::encode(awp::AttachMsg{0x0123456789abcdefull}));
    expectGolden("awp1.Cancel",
                 awp::encode(awp::CancelMsg{0xfedcba9876543210ull}));
    expectGolden("awp1.Status", awp::encode(awp::StatusMsg{}));
    expectGolden("awp1.Metrics",
                 awp::encode(awp::MetricsMsg{awp::MetricsFormat::Json}));
    expectGolden("awp1.Welcome", awp::encode(awp::WelcomeMsg{2, true}));
    awp::AcceptedMsg accepted{0xabcdefull, 12, 3, true};
    expectGolden("awp1.Accepted", awp::encode(accepted));
    accepted.trace_id = TRACE;
    expectGolden("awp1.Accepted.v2", awp::encode(accepted));
    expectGolden("awp1.Rejected",
                 awp::encode(awp::RejectedMsg{
                     "AUR201", util::SimErrorCode::Overloaded,
                     "tenant quota exhausted"}));
    expectGolden("awp1.Progress",
                 awp::encode(awp::ProgressMsg{7, 5, 9, 3, 1, 1, 0, 1.5}));
    expectGolden("awp1.Result",
                 awp::encode(awp::ResultMsg{
                     9, std::string("\x01\x02\x00", 3)}));
    expectGolden("awp1.GridDone",
                 awp::encode(awp::GridDoneMsg{4, 6, 1, 2, 3, 5}));
    expectGolden("awp1.StatusReport",
                 awp::encode(awp::StatusReportMsg{true, 2, 1, 8, 3, 40}));
    expectGolden("awp1.CancelOk", awp::encode(awp::CancelOkMsg{11, 4}));
    expectGolden("awp1.Draining",
                 awp::encode(awp::DrainingMsg{"SIGTERM"}));
    expectGolden("awp1.MetricsReport",
                 awp::encode(awp::MetricsReportMsg{
                     awp::MetricsFormat::Prometheus,
                     "aurora_up 1\n"}));
}

TEST(CodecGolden, ShardMessages)
{
    expectGolden("asw1.Hello", asw::encode(asw::HelloMsg{2, 4242}));
    expectGolden("asw1.Beat", asw::encode(asw::BeatMsg{3, 7, 19}));
    expectGolden("asw1.Result",
                 asw::encode(asw::ResultMsg{3, 7, 11, "rec"}));
    expectGolden("asw1.Welcome",
                 asw::encode(asw::WelcomeMsg{2, 3, 7, 400, 100}));
    asw::AssignMsg assign;
    assign.epoch = 7;
    assign.jobs = {sampleJob(1), sampleJob(2)};
    expectGolden("asw1.Assign", asw::encode(assign));
    assign.trace_id = TRACE;
    expectGolden("asw1.Assign.v2", asw::encode(assign));
    expectGolden("asw1.Fenced", asw::encode(asw::FencedMsg{7}));
    expectGolden("asw1.Shutdown", asw::encode(asw::ShutdownMsg{}));
}

TEST(CodecGolden, SweepJournalRecords)
{
    const std::string path = tempPath("codec_golden.ajrn");
    {
        harness::JournalWriter writer(path, 0xfeedfacecafebeefull, 72);
        writer.append(okRecord());
    }
    const std::vector<std::string> records = recordPayloads(path);
    ASSERT_EQ(records.size(), 2u);
    expectGolden("journal.header", records[0]);
    expectGolden("journal.job.ok", records[1]);
    expectGolden("journal.job.ok",
                 harness::encodeJournalRecord(okRecord()));
    expectGolden("journal.job.failed",
                 harness::encodeJournalRecord(failedRecord()));
    expectGolden("journal.run_result",
                 harness::runResultBytes(sampleResult()));
}

TEST(CodecGolden, ShardJournalRecords)
{
    const std::string path = tempPath("codec_golden.sjrn");
    {
        shard::ShardJournalWriter writer(path, /*slot=*/3, /*epoch=*/9);
        writer.append({9, 17, std::string("\x02rec", 4)});
    }
    const std::vector<std::string> records = recordPayloads(path);
    ASSERT_EQ(records.size(), 2u);
    expectGolden("shard_journal.header", records[0]);
    expectGolden("shard_journal.entry", records[1]);
}

/**
 * The spool manifest is written only by a live daemon: submit a grid
 * whose jobs cannot finish (a 50 ms deadline on 10^8-instruction
 * jobs, one worker), cancel it, drain, and read the <fp>.grid file.
 */
TEST(CodecGolden, SpoolManifestRecords)
{
    serve::ServerConfig config;
    config.socket_path = tempPath("codec_golden.sock");
    config.spool_dir = tempPath("codec_golden.spool");
    config.workers = 1;
    fs::remove(config.socket_path);
    fs::remove_all(config.spool_dir);
    const std::string spool_dir = config.spool_dir;
    const std::string socket_path = config.socket_path;

    serve::Server server(std::move(config));
    std::thread runner([&server] { server.run(); });
    {
        util::Fd fd = util::connectUnix(socket_path);
        awp::FrameDecoder decoder;
        const auto recv = [&] {
            auto payload = awp::recvFrame(fd.get(), decoder, 60'000);
            EXPECT_TRUE(payload.has_value());
            return payload.value_or(std::string());
        };
        awp::sendFrame(fd.get(), awp::encode(awp::HelloMsg{2, "golden"}));
        (void)awp::decodeWelcome(recv());

        awp::SubmitMsg submit;
        submit.label = "golden grid";
        submit.has_base_seed = true;
        submit.base_seed = 7;
        submit.deadline_ms = 50;
        for (const char *profile : {"espresso", "li", "eqntott"})
            submit.jobs.push_back({"model=small", profile, 100'000'000});
        awp::sendFrame(fd.get(), awp::encode(submit));
        const std::uint64_t fp = awp::decodeAccepted(recv()).fingerprint;
        awp::sendFrame(fd.get(), awp::encode(awp::CancelMsg{fp}));
        for (;;) {
            const std::string payload = recv();
            if (payload.empty() ||
                awp::peekType(payload) == awp::MsgType::CancelOk)
                break;
        }
    }
    server.requestDrain();
    runner.join();

    std::vector<std::string> manifests;
    for (const auto &entry : fs::directory_iterator(spool_dir))
        if (entry.path().extension() == ".grid")
            manifests.push_back(entry.path().string());
    ASSERT_EQ(manifests.size(), 1u);
    const std::vector<std::string> records = recordPayloads(manifests[0]);
    ASSERT_EQ(records.size(), 2u);
    expectGolden("manifest.submit", records[0]);
    expectGolden("manifest.cancel", records[1]);
}

} // namespace
