/**
 * @file
 * Shard fabric wire-protocol tests: codec round trips for every
 * message, type discrimination, trailing-byte rejection, and frame
 * corruption classification — the fabric-side twin of
 * test_serve_wire.
 */

#include <gtest/gtest.h>

#include <string>

#include "shard/shard_wire.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;
using namespace aurora::shard::wire;
using aurora::util::SimError;
using aurora::util::SimErrorCode;

JobSpec
sampleJob(std::uint64_t job_index)
{
    JobSpec job;
    job.job_index = job_index;
    job.machine_spec = "model=small fp_policy=single";
    job.profile_name = "espresso";
    job.profile_seed = 0x9e3779b97f4a7c15ull;
    job.instructions = 400'000;
    return job;
}

TEST(ShardWire, HelloRoundTrips)
{
    HelloMsg m;
    m.pid = 4242;
    const std::string payload = encode(m);
    EXPECT_EQ(peekType(payload), MsgType::Hello);
    const HelloMsg back = decodeHello(payload);
    EXPECT_EQ(back.version, SHARD_PROTOCOL_VERSION);
    EXPECT_EQ(back.pid, 4242u);
}

TEST(ShardWire, BeatRoundTrips)
{
    BeatMsg m;
    m.slot = 3;
    m.epoch = 17;
    m.done = 9;
    const BeatMsg back = decodeBeat(encode(m));
    EXPECT_EQ(back.slot, 3u);
    EXPECT_EQ(back.epoch, 17u);
    EXPECT_EQ(back.done, 9u);
}

TEST(ShardWire, ResultRoundTripsOpaqueRecordBytes)
{
    ResultMsg m;
    m.slot = 1;
    m.epoch = 5;
    // The record field is opaque bytes; embedded NULs and high bytes
    // must survive — it is a CRC-framed journal record, not text.
    m.record = std::string("\x00\xff\x7f journal", 11);
    const ResultMsg back = decodeResult(encode(m));
    EXPECT_EQ(back.slot, 1u);
    EXPECT_EQ(back.epoch, 5u);
    EXPECT_EQ(back.record, m.record);
}

TEST(ShardWire, WelcomeRoundTrips)
{
    WelcomeMsg m;
    m.slot = 2;
    m.epoch = 7;
    m.lease_ms = 10'000;
    m.beat_ms = 2'500;
    const WelcomeMsg back = decodeWelcome(encode(m));
    EXPECT_EQ(back.version, SHARD_PROTOCOL_VERSION);
    EXPECT_EQ(back.slot, 2u);
    EXPECT_EQ(back.epoch, 7u);
    EXPECT_EQ(back.lease_ms, 10'000u);
    EXPECT_EQ(back.beat_ms, 2'500u);
}

TEST(ShardWire, AssignRoundTripsEveryJobAndPolicyField)
{
    AssignMsg m;
    m.epoch = 9;
    m.jobs.push_back(sampleJob(0));
    m.jobs.push_back(sampleJob(1));
    m.jobs[1].profile_name = "tomcatv";
    m.trace_id = 0xfeedface12345678ull;
    m.policy = {true, 0xfeedfacecafebeefull, 30'000, 2, 125};
    const AssignMsg back = decodeAssign(encode(m));
    EXPECT_EQ(back.epoch, 9u);
    ASSERT_EQ(back.jobs.size(), 2u);
    for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(back.jobs[i].job_index, m.jobs[i].job_index);
        EXPECT_EQ(back.jobs[i].machine_spec, m.jobs[i].machine_spec);
        EXPECT_EQ(back.jobs[i].profile_name, m.jobs[i].profile_name);
        EXPECT_EQ(back.jobs[i].profile_seed, m.jobs[i].profile_seed);
        EXPECT_EQ(back.jobs[i].instructions, m.jobs[i].instructions);
    }
    EXPECT_EQ(back.trace_id, 0xfeedface12345678ull);
    EXPECT_TRUE(back.policy.has_base_seed);
    EXPECT_EQ(back.policy.base_seed, 0xfeedfacecafebeefull);
    EXPECT_EQ(back.policy.deadline_ms, 30'000u);
    EXPECT_EQ(back.policy.retries, 2u);
    EXPECT_EQ(back.policy.backoff_ms, 125u);
}

TEST(ShardWire, AssignTraceIdAndPolicyArePlainFields)
{
    // An untraced Assign under the default policy still carries both:
    // dropping the last byte is an underrun, not an older layout.
    AssignMsg m;
    m.epoch = 4;
    m.jobs.push_back(sampleJob(0));
    std::string payload = encode(m);
    const AssignMsg back = decodeAssign(payload);
    EXPECT_EQ(back.trace_id, 0u);
    EXPECT_FALSE(back.policy.has_base_seed);
    payload.pop_back();
    try {
        (void)decodeAssign(payload);
        FAIL() << "truncated Assign accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(ShardWire, FencedAndShutdownRoundTrip)
{
    EXPECT_EQ(decodeFenced(encode(FencedMsg{23})).epoch, 23u);
    EXPECT_EQ(peekType(encode(ShutdownMsg{})), MsgType::Shutdown);
    (void)decodeShutdown(encode(ShutdownMsg{}));
}

TEST(ShardWire, PeekTypeRejectsEmptyAndUnknown)
{
    EXPECT_THROW((void)peekType(""), SimError);
    EXPECT_THROW((void)peekType(std::string(1, '\x2a')), SimError);
}

TEST(ShardWire, WrongTypeByteIsBadWire)
{
    const std::string hello = encode(HelloMsg{});
    try {
        (void)decodeBeat(hello);
        FAIL() << "wrong-type decode accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(ShardWire, TrailingBytesAreBadWire)
{
    std::string payload = encode(BeatMsg{1, 2, 3});
    payload.push_back('\0');
    try {
        (void)decodeBeat(payload);
        FAIL() << "trailing byte accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(ShardWire, DecoderRoundTripsFrames)
{
    FrameDecoder decoder;
    decoder.feed(frame(encode(BeatMsg{1, 2, 3})) +
                 frame(encode(ShutdownMsg{})));
    std::string payload;
    ASSERT_EQ(decoder.next(payload), util::FrameStatus::Ok);
    EXPECT_EQ(peekType(payload), MsgType::Beat);
    ASSERT_EQ(decoder.next(payload), util::FrameStatus::Ok);
    EXPECT_EQ(peekType(payload), MsgType::Shutdown);
    EXPECT_EQ(decoder.next(payload), util::FrameStatus::NeedMore);
}

TEST(ShardWire, DecoderRejectsForeignMagic)
{
    // A frame from another fabric (flip one magic byte) must be
    // Corrupt at the decoder, not a surprise at the codec.
    std::string framed = frame(encode(BeatMsg{1, 2, 3}));
    framed[0] ^= 0x01;
    FrameDecoder decoder;
    decoder.feed(framed);
    std::string payload;
    EXPECT_EQ(decoder.next(payload), util::FrameStatus::Corrupt);
}

TEST(ShardWire, DecoderFlagsPayloadCorruption)
{
    std::string framed = frame(encode(ResultMsg{0, 1, "bytes"}));
    framed[framed.size() - 3] ^= 0x40; // damage inside the payload
    FrameDecoder decoder;
    decoder.feed(framed);
    std::string payload;
    EXPECT_EQ(decoder.next(payload), util::FrameStatus::Corrupt);
}

} // namespace
