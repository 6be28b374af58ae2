/**
 * @file
 * Record-file substrate tests: byte-exact payload codecs, CRC-framed
 * record round trips, and the torn-tail / corrupt classification the
 * sweep journal's crash-safety rests on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <fstream>
#include <string>
#include <vector>

#include "util/record_io.hh"
#include "test_tmp.hh"

namespace
{

using namespace aurora::util;
namespace fs = std::filesystem;

using aurora::test::tempPath;

std::uintmax_t
fileSize(const std::string &path)
{
    return fs::file_size(path);
}

void
flipBit(const std::string &path, std::uintmax_t byte, unsigned bit)
{
    std::fstream f(path, std::ios::binary | std::ios::in |
                             std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(byte));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ (1 << bit));
    f.seekp(static_cast<std::streamoff>(byte));
    f.write(&c, 1);
}

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

TEST(ByteCodec, RoundTripsEveryType)
{
    ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.f64(3.141592653589793);
    w.str("hello journal");
    w.str(""); // empty strings are legal

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f64(), 3.141592653589793);
    EXPECT_EQ(r.str(), "hello journal");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodec, DoublesAreBitExact)
{
    // The statistics being journaled include ratios that can be -0.0
    // or NaN in degenerate runs; bit-exact replay must preserve them.
    ByteWriter w;
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.f64(std::numeric_limits<double>::infinity());
    w.f64(5e-324); // smallest subnormal

    ByteReader r(w.bytes());
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_TRUE(std::isinf(r.f64()));
    EXPECT_EQ(r.f64(), 5e-324);
}

TEST(ByteCodec, UnderrunThrowsBadJournal)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.bytes());
    r.u32();
    try {
        r.u64();
        FAIL() << "underrun not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
    }
}

TEST(RecordFile, RoundTripsRecordsInOrder)
{
    const std::string path = tempPath("roundtrip.rec");
    const std::vector<std::string> payloads = {
        "first", std::string(1000, 'x'), "", "last"};
    {
        RecordFileWriter w(path, /*truncate=*/true);
        for (const auto &p : payloads)
            w.append(p);
    }
    RecordFileReader r(path);
    std::string payload;
    for (const auto &expected : payloads) {
        ASSERT_EQ(r.next(payload), RecordStatus::Ok);
        EXPECT_EQ(payload, expected);
    }
    EXPECT_EQ(r.next(payload), RecordStatus::EndOfFile);
    EXPECT_EQ(r.goodBytes(), fileSize(path));
}

TEST(RecordFile, AppendModePreservesExistingRecords)
{
    const std::string path = tempPath("append.rec");
    {
        RecordFileWriter w(path, /*truncate=*/true);
        w.append("one");
    }
    {
        RecordFileWriter w(path, /*truncate=*/false);
        w.append("two");
    }
    RecordFileReader r(path);
    std::string payload;
    ASSERT_EQ(r.next(payload), RecordStatus::Ok);
    EXPECT_EQ(payload, "one");
    ASSERT_EQ(r.next(payload), RecordStatus::Ok);
    EXPECT_EQ(payload, "two");
    EXPECT_EQ(r.next(payload), RecordStatus::EndOfFile);
}

TEST(RecordFile, EveryTruncationPointClassifiesAsTornTail)
{
    // Cut the file after record 1 at every possible byte: each cut is
    // exactly what a SIGKILL mid-append leaves behind, and each must
    // read as one good record plus a TruncatedTail — never Corrupt,
    // never a crash.
    const std::string path = tempPath("torn.rec");
    {
        RecordFileWriter w(path, /*truncate=*/true);
        w.append("keep me");
        w.append("tear me");
    }
    const auto full = fileSize(path);
    RecordFileReader probe(path);
    std::string payload;
    ASSERT_EQ(probe.next(payload), RecordStatus::Ok);
    const auto first_end = probe.goodBytes();

    for (auto cut = first_end + 1; cut < full; ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        const std::string victim = tempPath("torn-cut.rec");
        fs::copy_file(path, victim,
                      fs::copy_options::overwrite_existing);
        fs::resize_file(victim, cut);

        RecordFileReader r(victim);
        ASSERT_EQ(r.next(payload), RecordStatus::Ok);
        EXPECT_EQ(payload, "keep me");
        EXPECT_EQ(r.next(payload), RecordStatus::TruncatedTail);
        EXPECT_EQ(r.goodBytes(), first_end);
    }
}

TEST(RecordFile, BadMagicIsCorrupt)
{
    const std::string path = tempPath("magic.rec");
    {
        RecordFileWriter w(path, /*truncate=*/true);
        w.append("alpha");
        w.append("beta");
    }
    RecordFileReader probe(path);
    std::string payload;
    ASSERT_EQ(probe.next(payload), RecordStatus::Ok);
    flipBit(path, probe.goodBytes(), 3); // second record's magic

    RecordFileReader r(path);
    ASSERT_EQ(r.next(payload), RecordStatus::Ok);
    EXPECT_EQ(r.next(payload), RecordStatus::Corrupt);
}

TEST(RecordFile, PayloadFlipIsCaughtByCrc)
{
    const std::string path = tempPath("crcflip.rec");
    {
        RecordFileWriter w(path, /*truncate=*/true);
        w.append(std::string(64, 'p'));
    }
    // Every payload byte is covered by the CRC: flip each in turn.
    for (std::uintmax_t byte = 12; byte < fileSize(path); ++byte) {
        SCOPED_TRACE("payload byte " + std::to_string(byte));
        const std::string victim = tempPath("crcflip-one.rec");
        fs::copy_file(path, victim,
                      fs::copy_options::overwrite_existing);
        flipBit(victim, byte, static_cast<unsigned>(byte % 8));
        RecordFileReader r(victim);
        std::string payload;
        EXPECT_EQ(r.next(payload), RecordStatus::Corrupt);
    }
}

TEST(RecordFile, OversizedLengthFieldIsCorruptNotAllocated)
{
    const std::string path = tempPath("hugelen.rec");
    {
        RecordFileWriter w(path, /*truncate=*/true);
        w.append("tiny");
    }
    // Force the length field far past MAX_RECORD_BYTES.
    flipBit(path, 7, 7); // top byte of the little-endian length

    RecordFileReader r(path);
    std::string payload;
    EXPECT_EQ(r.next(payload), RecordStatus::Corrupt);
}

TEST(RecordFile, FuzzedBitFlipsNeverCrashTheReader)
{
    const std::string path = tempPath("fuzz.rec");
    {
        RecordFileWriter w(path, /*truncate=*/true);
        for (int i = 0; i < 8; ++i)
            w.append("record payload #" + std::to_string(i));
    }
    const auto size = fileSize(path);

    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string victim = tempPath("fuzz-one.rec");
        fs::copy_file(path, victim,
                      fs::copy_options::overwrite_existing);
        flipBit(victim, mix(seed) % size,
                static_cast<unsigned>(mix(seed + 99) % 8));

        // Read to a terminal status: any mix of Ok records followed
        // by one terminal classification is acceptable; looping
        // forever or crashing is not.
        RecordFileReader r(victim);
        std::string payload;
        RecordStatus status = RecordStatus::Ok;
        int records = 0;
        while ((status = r.next(payload)) == RecordStatus::Ok) {
            ASSERT_LE(++records, 8);
        }
        EXPECT_TRUE(status == RecordStatus::EndOfFile ||
                    status == RecordStatus::TruncatedTail ||
                    status == RecordStatus::Corrupt);
    }
}

TEST(RecordFile, MissingFileThrowsBadJournal)
{
    try {
        RecordFileReader r(tempPath("does-not-exist.rec"));
        FAIL() << "missing file not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
    }
}

} // namespace
