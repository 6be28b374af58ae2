/**
 * @file
 * Payload fuzz over every decoder. Frame and record CRCs are not
 * secrets, so a crafted payload reaches the decoders intact: for each
 * golden payload (codec_golden.hh), every truncation and every
 * flipped byte must either decode or throw SimError with the format's
 * code — never crash, never over-allocate, never decode into more
 * than the bytes held. Also pins each decoder safety check the codec
 * core enforces: enum ranges, list-count caps, expected constants,
 * and trailing bytes.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <type_traits>

#include "codec_golden.hh"
#include "harness/journal.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "shard/shard_journal.hh"
#include "shard/shard_wire.hh"
#include "util/codec.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;
using aurora::test::fromHex;
using aurora::test::goldenHex;
using aurora::util::SimError;
using aurora::util::SimErrorCode;
namespace awp = serve::wire;
namespace asw = shard::wire;
namespace codec = util::codec;

/** core::RunResult alone, as runResultBytes() lays it out. */
struct RunResultBytes
{
    core::RunResult result;
};

template <typename M>
std::string
reencode(const M &m)
{
    return codec::encode(m);
}

std::string
reencode(const RunResultBytes &r)
{
    return harness::runResultBytes(r.result);
}

template <typename M>
M
decodeAny(const std::string &payload)
{
    if constexpr (std::is_same_v<M, RunResultBytes>) {
        RunResultBytes r;
        codec::Decoder io(payload, SimErrorCode::BadJournal, "run",
                          "result");
        io.as(harness::RunResultLayout{}, r.result);
        io.finish();
        return r;
    } else {
        return codec::decode<M>(payload);
    }
}

/** Decode @p payload: success, or SimError carrying @p code. */
template <typename M>
void
decodesOrThrows(const std::string &payload, SimErrorCode code,
                const std::string &what)
{
    try {
        const M m = decodeAny<M>(payload);
        // Nothing decoded from thin air: a payload re-encodes to at
        // most its own size (a zero trailing id re-encodes shorter).
        EXPECT_LE(reencode(m).size(), payload.size()) << what;
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), code) << what << ": " << e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": non-SimError " << e.what();
    }
}

/** Fuzz the decoder of M from the golden payload @p name. */
template <typename M>
void
fuzz(const char *name, SimErrorCode code)
{
    SCOPED_TRACE(name);
    const std::string golden = fromHex(goldenHex(name));
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(reencode(decodeAny<M>(golden)), golden);
    for (std::size_t cut = 0; cut < golden.size(); ++cut)
        decodesOrThrows<M>(golden.substr(0, cut), code,
                           "cut at " + std::to_string(cut));
    for (std::size_t pos = 0; pos < golden.size(); ++pos)
        for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
            std::string damaged = golden;
            damaged[pos] = static_cast<char>(
                static_cast<unsigned char>(damaged[pos]) ^ mask);
            decodesOrThrows<M>(damaged, code,
                               "byte " + std::to_string(pos) +
                                   " ^ " + std::to_string(mask));
        }
}

constexpr SimErrorCode WIRE = SimErrorCode::BadWire;
constexpr SimErrorCode DISK = SimErrorCode::BadJournal;

TEST(CodecFuzz, ServeMessages)
{
    fuzz<awp::HelloMsg>("awp1.Hello", WIRE);
    fuzz<awp::SubmitMsg>("awp1.Submit", WIRE);
    fuzz<awp::SubmitMsg>("awp1.Submit.v2", WIRE);
    fuzz<awp::AttachMsg>("awp1.Attach", WIRE);
    fuzz<awp::CancelMsg>("awp1.Cancel", WIRE);
    fuzz<awp::StatusMsg>("awp1.Status", WIRE);
    fuzz<awp::MetricsMsg>("awp1.Metrics", WIRE);
    fuzz<awp::WelcomeMsg>("awp1.Welcome", WIRE);
    fuzz<awp::AcceptedMsg>("awp1.Accepted", WIRE);
    fuzz<awp::AcceptedMsg>("awp1.Accepted.v2", WIRE);
    fuzz<awp::RejectedMsg>("awp1.Rejected", WIRE);
    fuzz<awp::ProgressMsg>("awp1.Progress", WIRE);
    fuzz<awp::ResultMsg>("awp1.Result", WIRE);
    fuzz<awp::GridDoneMsg>("awp1.GridDone", WIRE);
    fuzz<awp::StatusReportMsg>("awp1.StatusReport", WIRE);
    fuzz<awp::CancelOkMsg>("awp1.CancelOk", WIRE);
    fuzz<awp::DrainingMsg>("awp1.Draining", WIRE);
    fuzz<awp::MetricsReportMsg>("awp1.MetricsReport", WIRE);
}

TEST(CodecFuzz, ShardMessages)
{
    fuzz<asw::HelloMsg>("asw1.Hello", WIRE);
    fuzz<asw::BeatMsg>("asw1.Beat", WIRE);
    fuzz<asw::ResultMsg>("asw1.Result", WIRE);
    fuzz<asw::WelcomeMsg>("asw1.Welcome", WIRE);
    fuzz<asw::AssignMsg>("asw1.Assign", WIRE);
    fuzz<asw::FencedMsg>("asw1.Fenced", WIRE);
    fuzz<asw::ShutdownMsg>("asw1.Shutdown", WIRE);
}

TEST(CodecFuzz, DiskRecords)
{
    fuzz<harness::JournalHeader>("journal.header", DISK);
    fuzz<harness::JournalRecord>("journal.job.ok", DISK);
    fuzz<harness::JournalRecord>("journal.job.failed", DISK);
    fuzz<RunResultBytes>("journal.run_result", DISK);
    fuzz<shard::ShardJournalHeader>("shard_journal.header", DISK);
    fuzz<serve::ManifestSubmit>("manifest.submit", DISK);
    fuzz<serve::ManifestCancel>("manifest.cancel", DISK);
}

/** Every golden payload is fuzzed above (keep the lists in step). */
TEST(CodecFuzz, CoversEveryGoldenPayload)
{
    EXPECT_EQ(std::size(test::GOLDEN_PAYLOADS), 18u + 7u + 7u);
}

/** Expect decode<M>(@p payload) to throw SimError(@p code). */
template <typename M>
void
expectRefused(const std::string &payload, SimErrorCode code)
{
    try {
        (void)decodeAny<M>(payload);
        ADD_FAILURE() << "decoded a payload it must refuse";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), code) << e.what();
    }
}

/** The golden payload @p name with byte @p pos replaced. */
std::string
patched(const char *name, std::size_t pos, char byte)
{
    std::string bytes = fromHex(goldenHex(name));
    bytes.at(pos) = byte;
    return bytes;
}

TEST(CodecChecks, EnumFieldsAreRangeChecked)
{
    // Rejected: type, id "AUR201" (4 + 6 bytes), then the code byte.
    expectRefused<awp::RejectedMsg>(patched("awp1.Rejected", 11, 10),
                                    WIRE);
    expectRefused<awp::MetricsMsg>(patched("awp1.Metrics", 1, 2), WIRE);
    // Job record: type, 3 x u64, u32 attempts, ok, then the code.
    expectRefused<harness::JournalRecord>(
        patched("journal.job.failed", 30, 10), DISK);
}

TEST(CodecChecks, ListCountIsCappedBeforeAllocation)
{
    // Submit: type, label (4 + 13), 2 flags, 3 x u64, u32, then the
    // u64 job count — claim 2^40 jobs.
    expectRefused<awp::SubmitMsg>(
        patched("awp1.Submit", 18 + 2 + 24 + 4 + 5, 1), WIRE);
    // Assign: type, epoch, then the count.
    expectRefused<asw::AssignMsg>(patched("asw1.Assign", 9 + 5, 1),
                                  WIRE);
}

TEST(CodecChecks, ExpectedConstantsAreChecked)
{
    expectRefused<harness::JournalHeader>(
        patched("journal.header", 1, 1), DISK); // version 1
    expectRefused<shard::ShardJournalHeader>(
        patched("shard_journal.header", 1, 1), DISK); // version 1
    expectRefused<serve::ManifestSubmit>(
        patched("manifest.submit", 1, 2), DISK);
    // RunResult: model (4 + 5), benchmark (4 + 8), 4 x u64, then the
    // stall-cause count.
    expectRefused<RunResultBytes>(
        patched("journal.run_result", 21 + 32, 99), DISK);
}

TEST(CodecChecks, TrailingBytesAndWrongTagsAreRefused)
{
    expectRefused<awp::CancelMsg>(
        fromHex(goldenHex("awp1.Cancel")) + '\0', WIRE);
    expectRefused<harness::JournalRecord>(
        fromHex(goldenHex("journal.job.failed")) + '\0', DISK);
    expectRefused<serve::ManifestCancel>(
        fromHex(goldenHex("manifest.submit")), DISK);
    expectRefused<asw::FencedMsg>(fromHex(goldenHex("awp1.Cancel")),
                                  WIRE);
}

TEST(CodecChecks, NameTablesCoverEveryTag)
{
    EXPECT_STREQ(awp::msgTypeName(awp::MsgType::MetricsReport),
                 "MetricsReport");
    EXPECT_STREQ(asw::msgTypeName(asw::MsgType::Shutdown), "Shutdown");
    EXPECT_EQ(awp::peekType(fromHex(goldenHex("awp1.GridDone"))),
              awp::MsgType::GridDone);
    expectRefused<awp::StatusMsg>(std::string("\x07", 1), WIRE);
    try {
        (void)asw::peekType(std::string("\x7f", 1));
        ADD_FAILURE() << "unknown shard type accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), WIRE);
    }
}

} // namespace
