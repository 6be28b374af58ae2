/**
 * @file
 * Wire-protocol tests: message codec round trips, torn-frame
 * classification at every cut byte, CRC-flip fuzz, and the
 * corruptWireFrame() fault-injector contract — the socket-side twin
 * of test_util_record_io — and util::FramedConn over a socketpair:
 * ordered delivery through a full send buffer, pipelined frames that
 * survive a move, EOF and corruption.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <string>
#include <utility>
#include <vector>

#include "faultinject/faultinject.hh"
#include "serve/wire.hh"
#include "util/frame.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;
using namespace aurora::serve::wire;
using aurora::util::SimError;
using aurora::util::SimErrorCode;

/** splitmix64 — deterministic fuzz positions without libc rand(). */
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

SubmitMsg
sampleSubmit()
{
    SubmitMsg m;
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

TEST(WireCodec, HelloRoundTrips)
{
    HelloMsg m;
    m.tenant = "alice";
    const auto payload = encode(m);
    EXPECT_EQ(peekType(payload), MsgType::Hello);
    const auto back = decodeHello(payload);
    EXPECT_EQ(back.version, PROTOCOL_VERSION);
    EXPECT_EQ(back.tenant, "alice");
}

TEST(WireCodec, SubmitRoundTrips)
{
    const SubmitMsg m = sampleSubmit();
    const auto back = decodeSubmit(encode(m));
    EXPECT_EQ(back.label, m.label);
    EXPECT_EQ(back.cancel_on_disconnect, m.cancel_on_disconnect);
    EXPECT_EQ(back.has_base_seed, m.has_base_seed);
    EXPECT_EQ(back.base_seed, m.base_seed);
    EXPECT_EQ(back.deadline_ms, m.deadline_ms);
    EXPECT_EQ(back.retries, m.retries);
    EXPECT_EQ(back.backoff_ms, m.backoff_ms);
    ASSERT_EQ(back.jobs.size(), m.jobs.size());
    for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        EXPECT_EQ(back.jobs[i].machine_spec, m.jobs[i].machine_spec);
        EXPECT_EQ(back.jobs[i].profile, m.jobs[i].profile);
        EXPECT_EQ(back.jobs[i].instructions, m.jobs[i].instructions);
    }
}

TEST(WireCodec, ServerMessagesRoundTrip)
{
    const auto accepted =
        decodeAccepted(encode(AcceptedMsg{0xabcdefull, 12, 3, true}));
    EXPECT_EQ(accepted.fingerprint, 0xabcdefull);
    EXPECT_EQ(accepted.jobs, 12u);
    EXPECT_EQ(accepted.done, 3u);
    EXPECT_TRUE(accepted.attached);

    const auto rejected = decodeRejected(encode(RejectedMsg{
        "AUR203", SimErrorCode::Overloaded, "queue full"}));
    EXPECT_EQ(rejected.id, "AUR203");
    EXPECT_EQ(rejected.code, SimErrorCode::Overloaded);
    EXPECT_EQ(rejected.message, "queue full");

    const auto progress = decodeProgress(
        encode(ProgressMsg{7, 5, 10, 4, 1, 0, 0, 1.25}));
    EXPECT_EQ(progress.fingerprint, 7u);
    EXPECT_EQ(progress.done, 5u);
    EXPECT_EQ(progress.total, 10u);
    EXPECT_EQ(progress.ok, 4u);
    EXPECT_EQ(progress.failed, 1u);
    EXPECT_EQ(progress.elapsed_seconds, 1.25);

    const auto result =
        decodeResult(encode(ResultMsg{9, std::string("\x01\x02\x00", 3)}));
    EXPECT_EQ(result.fingerprint, 9u);
    EXPECT_EQ(result.record, std::string("\x01\x02\x00", 3));

    const auto done = decodeGridDone(encode(GridDoneMsg{4, 6, 1, 2, 3, 5}));
    EXPECT_EQ(done.fingerprint, 4u);
    EXPECT_EQ(done.ok, 6u);
    EXPECT_EQ(done.failed, 1u);
    EXPECT_EQ(done.timed_out, 2u);
    EXPECT_EQ(done.cancelled, 3u);
    EXPECT_EQ(done.resumed, 5u);

    const auto status =
        decodeStatusReport(encode(StatusReportMsg{true, 2, 1, 8, 3, 40}));
    EXPECT_TRUE(status.draining);
    EXPECT_EQ(status.grids, 2u);
    EXPECT_EQ(status.done_grids, 1u);
    EXPECT_EQ(status.queued_jobs, 8u);
    EXPECT_EQ(status.running_jobs, 3u);
    EXPECT_EQ(status.done_jobs, 40u);

    const auto cancel_ok = decodeCancelOk(encode(CancelOkMsg{11, 4}));
    EXPECT_EQ(cancel_ok.fingerprint, 11u);
    EXPECT_EQ(cancel_ok.cancelled_jobs, 4u);

    const auto draining = decodeDraining(encode(DrainingMsg{"SIGTERM"}));
    EXPECT_EQ(draining.reason, "SIGTERM");
}

TEST(WireCodec, V2TraceIdRoundTripsOnSubmitAndAccepted)
{
    SubmitMsg submit = sampleSubmit();
    submit.trace_id = 0xdeadbeefcafe1234ull;
    EXPECT_EQ(decodeSubmit(encode(submit)).trace_id,
              0xdeadbeefcafe1234ull);

    AcceptedMsg accepted{0xabcdefull, 12, 3, true};
    accepted.trace_id = 0x1122334455667788ull;
    EXPECT_EQ(decodeAccepted(encode(accepted)).trace_id,
              0x1122334455667788ull);
}

TEST(WireCodec, V1FramesWithoutTraceIdStillDecode)
{
    // A v1 peer never writes the trailing trace id, and a v2 encoder
    // with trace_id == 0 emits the identical v1 bytes — both must
    // decode with the 0 "untraced" sentinel, not raise.
    const SubmitMsg submit = sampleSubmit(); // trace_id defaults to 0
    const auto v1_bytes = encode(submit);
    EXPECT_EQ(decodeSubmit(v1_bytes).trace_id, 0u);

    const auto accepted =
        decodeAccepted(encode(AcceptedMsg{0xabcdefull, 12, 3, false}));
    EXPECT_EQ(accepted.trace_id, 0u);
}

TEST(WireCodec, MetricsRoundTripsBothFormats)
{
    MetricsMsg prom;
    prom.format = MetricsFormat::Prometheus;
    EXPECT_EQ(peekType(encode(prom)), MsgType::Metrics);
    EXPECT_EQ(decodeMetrics(encode(prom)).format,
              MetricsFormat::Prometheus);
    MetricsMsg json;
    json.format = MetricsFormat::Json;
    EXPECT_EQ(decodeMetrics(encode(json)).format,
              MetricsFormat::Json);

    MetricsReportMsg report;
    report.format = MetricsFormat::Json;
    report.body = "{\"schema\": \"aurora.metrics.v1\"}";
    const auto back = decodeMetricsReport(encode(report));
    EXPECT_EQ(back.format, MetricsFormat::Json);
    EXPECT_EQ(back.body, report.body);
}

TEST(WireCodec, WrongTypeByteThrowsBadWire)
{
    const auto payload = encode(HelloMsg{PROTOCOL_VERSION, "bob"});
    try {
        decodeSubmit(payload);
        FAIL() << "type confusion not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(WireCodec, TrailingBytesThrowBadWire)
{
    auto payload = encode(CancelMsg{42});
    payload += '\0';
    try {
        decodeCancel(payload);
        FAIL() << "trailing bytes not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(WireCodec, EmptyPayloadThrowsBadWire)
{
    try {
        peekType("");
        FAIL() << "empty payload not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(FrameDecoder, ExtractsFramesInOrder)
{
    const std::vector<std::string> payloads = {
        encode(HelloMsg{PROTOCOL_VERSION, "alice"}),
        encode(StatusMsg{}),
        encode(CancelMsg{99}),
    };
    FrameDecoder decoder;
    for (const auto &p : payloads)
        decoder.feed(frame(p));

    std::string out;
    for (const auto &expected : payloads) {
        ASSERT_EQ(decoder.next(out), FrameStatus::Ok);
        EXPECT_EQ(out, expected);
    }
    EXPECT_EQ(decoder.next(out), FrameStatus::NeedMore);
    EXPECT_TRUE(decoder.atFrameBoundary());
}

TEST(FrameDecoder, ByteAtATimeFeedingNeedsMoreUntilComplete)
{
    const std::string payload = encode(sampleSubmit());
    const std::string framed = frame(payload);
    FrameDecoder decoder;
    std::string out;
    for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
        decoder.feed(framed.data() + i, 1);
        ASSERT_EQ(decoder.next(out), FrameStatus::NeedMore)
            << "after byte " << i;
        EXPECT_FALSE(decoder.atFrameBoundary());
    }
    decoder.feed(framed.data() + framed.size() - 1, 1);
    ASSERT_EQ(decoder.next(out), FrameStatus::Ok);
    EXPECT_EQ(out, payload);
    EXPECT_TRUE(decoder.atFrameBoundary());
}

TEST(FrameDecoder, EveryCutByteReadsAsTornFrameNeverOk)
{
    // Cut one frame at every possible byte: each prefix is exactly
    // what a read() against a dying peer returns, and each must
    // classify NeedMore (waiting for bytes that never come) — never
    // Ok with a partial payload, never a crash.
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::size_t cut = 0; cut < framed.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        FrameDecoder decoder;
        decoder.feed(framed.data(), cut);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::NeedMore);
        if (cut > 0) {
            EXPECT_FALSE(decoder.atFrameBoundary());
        }
    }
}

TEST(FrameDecoder, EveryPayloadBitFlipIsCorrupt)
{
    const std::string framed = frame(encode(sampleSubmit()));
    constexpr std::size_t HEADER = 12;
    for (std::size_t byte = HEADER; byte < framed.size(); ++byte) {
        SCOPED_TRACE("payload byte " + std::to_string(byte));
        std::string victim = framed;
        victim[byte] = static_cast<char>(
            static_cast<unsigned char>(victim[byte]) ^
            static_cast<unsigned char>(1u << (byte % 8)));
        FrameDecoder decoder;
        decoder.feed(victim);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
    }
}

TEST(FrameDecoder, FuzzedHeaderFlipsNeverYieldAValidPayload)
{
    // A flip in the header can read as Corrupt (magic/CRC damage) or
    // NeedMore (an inflated length field waits for bytes that never
    // arrive) — but never as Ok: no single-bit flip may produce a
    // deliverable payload.
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::size_t byte = 0; byte < 12; ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            SCOPED_TRACE("header byte " + std::to_string(byte) +
                         " bit " + std::to_string(bit));
            std::string victim = framed;
            victim[byte] = static_cast<char>(
                static_cast<unsigned char>(victim[byte]) ^
                static_cast<unsigned char>(1u << bit));
            FrameDecoder decoder;
            decoder.feed(victim);
            std::string out;
            EXPECT_NE(decoder.next(out), FrameStatus::Ok);
        }
    }
}

TEST(FrameDecoder, JournalMagicOnTheWireIsCorrupt)
{
    // A journal file pushed down the socket must be refused by magic:
    // same framing layout, different stream ('AJRN' vs 'AWP1').
    std::string bogus = frame(encode(StatusMsg{}));
    bogus[0] = 'A';
    bogus[1] = 'J';
    bogus[2] = 'R';
    bogus[3] = 'N';
    FrameDecoder decoder;
    decoder.feed(bogus);
    std::string out;
    EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
}

TEST(FrameDecoder, RecoveryNotAttemptedAfterCorrupt)
{
    // Corrupt is terminal: even if good frames follow, the stream
    // offset is untrustworthy and the session must be dropped. The
    // decoder keeps reporting Corrupt rather than resynchronizing.
    const std::string good = frame(encode(StatusMsg{}));
    std::string bad = good;
    // Shrink the length field (1 -> 0): the stored CRC no longer
    // matches the (now empty) payload span.
    bad[4] = static_cast<char>(bad[4] ^ 0x01);
    FrameDecoder decoder;
    decoder.feed(bad);
    decoder.feed(good);
    std::string out;
    EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
    EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
}

/** Two connected FramedConns speaking the serve magic. */
std::pair<util::FramedConn, util::FramedConn>
connPair()
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return {util::FramedConn(util::Fd(fds[0]), WIRE_MAGIC),
            util::FramedConn(util::Fd(fds[1]), WIRE_MAGIC)};
}

/** receive() into @p got until it stops reporting Open or the read
 *  returns nothing new. */
util::ConnStatus
drain(util::FramedConn &conn, std::vector<std::string> &got)
{
    for (;;) {
        const std::size_t before = got.size();
        const util::ConnStatus status =
            conn.receive([&](const std::string &payload) {
                got.push_back(payload);
                return true;
            });
        if (status != util::ConnStatus::Open || got.size() == before)
            return status;
    }
}

TEST(FramedConn, SlowReaderGetsEveryFrameInOrderThroughAFullBuffer)
{
    auto [writer, reader] = connPair();
    const int small = 4096;
    ASSERT_EQ(::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                           sizeof(small)),
              0);
    std::vector<std::string> sent;
    for (std::uint64_t i = 0; i < 200; ++i) {
        sent.push_back(encode(HelloMsg{
            PROTOCOL_VERSION,
            std::to_string(i) + std::string(1000, 'x')}));
        writer.send(sent.back());
    }
    ASSERT_TRUE(writer.flush());
    ASSERT_TRUE(writer.wantsWrite()) << "200 KB fit a 4 KB buffer";

    // One read per round: wantsWrite() holds while any byte is still
    // unsent, and once it drops the reader gets the rest unaided.
    std::vector<std::string> got;
    int rounds = 0;
    while (writer.wantsWrite()) {
        ASSERT_LT(++rounds, 100'000);
        ASSERT_LT(got.size(), sent.size());
        ASSERT_EQ(reader.receive([&](const std::string &payload) {
            got.push_back(payload);
            return true;
        }),
                  util::ConnStatus::Open);
        ASSERT_TRUE(writer.flush());
    }
    EXPECT_GT(rounds, 1);
    EXPECT_EQ(drain(reader, got), util::ConnStatus::Open);
    EXPECT_EQ(got, sent);
}

TEST(FramedConn, PipelinedFramesSurviveAMove)
{
    // A dialer's Hello arrives with later frames behind it; the
    // handler of the first hands the connection to a new owner, as a
    // coordinator does when it grants a lease.
    auto [writer, reader] = connPair();
    const std::vector<std::string> sent = {encode(StatusMsg{}),
                                           encode(CancelMsg{7}),
                                           encode(CancelMsg{8})};
    for (const std::string &payload : sent)
        writer.send(payload);
    ASSERT_TRUE(writer.flush());

    util::FramedConn owner(WIRE_MAGIC);
    std::vector<std::string> got;
    EXPECT_EQ(reader.receive([&](const std::string &payload) {
        got.push_back(payload);
        owner = std::move(reader);
        return false;
    }),
              util::ConnStatus::Open);
    EXPECT_FALSE(reader.open());
    ASSERT_TRUE(owner.open());
    EXPECT_EQ(drain(owner, got), util::ConnStatus::Open);
    EXPECT_EQ(got, sent);
}

TEST(FramedConn, PeerCloseReportsClosedAfterTheLastFrame)
{
    auto [writer, reader] = connPair();
    writer.send(encode(StatusMsg{}));
    ASSERT_TRUE(writer.flush());
    writer.close();
    std::vector<std::string> got;
    EXPECT_EQ(drain(reader, got), util::ConnStatus::Closed);
    EXPECT_EQ(got, std::vector<std::string>{encode(StatusMsg{})});
}

TEST(FramedConn, CorruptBytesReportCorruptAndDeliverNothingAfter)
{
    auto [writer, reader] = connPair();
    const std::string good = frame(encode(StatusMsg{}));
    std::string bad = frame(encode(CancelMsg{9}));
    bad.back() = static_cast<char>(bad.back() ^ 0x01); // CRC mismatch
    util::writeAll(writer.fd(), good + bad + good);
    std::vector<std::string> got;
    EXPECT_EQ(drain(reader, got), util::ConnStatus::Corrupt);
    EXPECT_EQ(drain(reader, got), util::ConnStatus::Corrupt);
    EXPECT_EQ(got, std::vector<std::string>{encode(StatusMsg{})});
}

TEST(WireFaults, TruncateFrameStarvesTheDecoder)
{
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string cut = faultinject::corruptWireFrame(
            framed, faultinject::WireFault::TruncateFrame, seed);
        ASSERT_LT(cut.size(), 12u);
        FrameDecoder decoder;
        decoder.feed(cut);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::NeedMore);
    }
}

TEST(WireFaults, MidFrameCutStarvesTheDecoder)
{
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string cut = faultinject::corruptWireFrame(
            framed, faultinject::WireFault::MidFrameCut, seed);
        ASSERT_LT(cut.size(), framed.size());
        FrameDecoder decoder;
        decoder.feed(cut);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::NeedMore);
        EXPECT_FALSE(decoder.atFrameBoundary());
    }
}

TEST(WireFaults, CrcFlipIsCorrupt)
{
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string flipped = faultinject::corruptWireFrame(
            framed, faultinject::WireFault::CrcFlip, seed);
        ASSERT_EQ(flipped.size(), framed.size());
        FrameDecoder decoder;
        decoder.feed(flipped);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
    }
}

TEST(WireFaults, EmptyPayloadFrameNeverSurvivesAnyFault)
{
    // StatusMsg is the smallest frame (1-byte payload); an *empty*
    // payload cannot occur via encode(), so build the nearest shape
    // and check every fault kind still denies the decoder a payload.
    const std::string framed = frame(encode(StatusMsg{}));
    for (std::size_t f = 0; f < faultinject::NUM_WIRE_FAULTS; ++f) {
        const auto fault = static_cast<faultinject::WireFault>(f);
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            SCOPED_TRACE(std::string(faultinject::wireFaultName(fault)) +
                         " seed " + std::to_string(seed));
            const std::string victim =
                faultinject::corruptWireFrame(framed, fault, seed);
            FrameDecoder decoder;
            decoder.feed(victim);
            std::string out;
            EXPECT_NE(decoder.next(out), FrameStatus::Ok);
        }
    }
}

TEST(WireFaults, SeedDrivenChoiceIsDeterministicAndMapped)
{
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const auto a = faultinject::anyWireFault(seed);
        const auto b = faultinject::anyWireFault(seed);
        EXPECT_EQ(a, b);
        EXPECT_STREQ(faultinject::wireFaultDiagnosticId(a), "AUR207");
        EXPECT_NE(std::string(faultinject::wireFaultName(a)), "");
    }
}

TEST(WireFaults, FuzzedFrameCorruptionNeverCrashes)
{
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::uint64_t seed = 0; seed < 128; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto fault = faultinject::anyWireFault(mix(seed));
        const std::string victim =
            faultinject::corruptWireFrame(framed, fault, seed);
        FrameDecoder decoder;
        decoder.feed(victim);
        std::string out;
        FrameStatus status;
        int frames = 0;
        while ((status = decoder.next(out)) == FrameStatus::Ok)
            ASSERT_LE(++frames, 1);
        EXPECT_EQ(frames, 0) << "corrupted frame decoded as valid";
    }
}

} // namespace
