/**
 * @file
 * Unit tests for the binary trace format and streaming sources.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "trace/trace_io.hh"
#include "util/sim_error.hh"
#include "test_tmp.hh"

namespace
{

using namespace aurora;
using namespace aurora::trace;
using util::SimError;
using util::SimErrorCode;

using aurora::test::tempPath;

std::vector<Inst>
sampleInsts(std::size_t n)
{
    SyntheticWorkload w(espresso());
    return collect(w, n);
}

TEST(TraceIo, RoundTripPreservesEveryField)
{
    const auto insts = sampleInsts(500);
    const std::string path = tempPath("roundtrip.aur3");
    writeTrace(path, insts);
    const auto back = readTrace(path);
    ASSERT_EQ(back.size(), insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        EXPECT_EQ(back[i].pc, insts[i].pc);
        EXPECT_EQ(back[i].next_pc, insts[i].next_pc);
        EXPECT_EQ(back[i].eff_addr, insts[i].eff_addr);
        EXPECT_EQ(back[i].op, insts[i].op);
        EXPECT_EQ(back[i].src_a, insts[i].src_a);
        EXPECT_EQ(back[i].src_b, insts[i].src_b);
        EXPECT_EQ(back[i].dst, insts[i].dst);
        EXPECT_EQ(back[i].fsrc_a, insts[i].fsrc_a);
        EXPECT_EQ(back[i].fsrc_b, insts[i].fsrc_b);
        EXPECT_EQ(back[i].fdst, insts[i].fdst);
        EXPECT_EQ(back[i].size, insts[i].size);
        EXPECT_EQ(back[i].taken, insts[i].taken);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const std::string path = tempPath("empty.aur3");
    writeTrace(path, {});
    EXPECT_TRUE(readTrace(path).empty());
    std::remove(path.c_str());
}

TEST(TraceIo, FileSourceReportsCount)
{
    const auto insts = sampleInsts(123);
    const std::string path = tempPath("count.aur3");
    writeTrace(path, insts);
    FileTraceSource src(path);
    EXPECT_EQ(src.recordCount(), 123u);
    Inst inst;
    Count n = 0;
    while (src.next(inst))
        ++n;
    EXPECT_EQ(n, 123u);
    std::remove(path.c_str());
}

TEST(TraceIo, VectorSourceRewinds)
{
    VectorTraceSource src(sampleInsts(10));
    Inst inst;
    int n = 0;
    while (src.next(inst))
        ++n;
    EXPECT_EQ(n, 10);
    src.rewind();
    EXPECT_TRUE(src.next(inst));
}

TEST(TraceIo, LimitedSourceTruncates)
{
    VectorTraceSource inner(sampleInsts(100));
    LimitedTraceSource limited(inner, 7);
    Inst inst;
    int n = 0;
    while (limited.next(inst))
        ++n;
    EXPECT_EQ(n, 7);
}

TEST(TraceIo, LimitedSourceHandlesShortInner)
{
    VectorTraceSource inner(sampleInsts(3));
    LimitedTraceSource limited(inner, 10);
    Inst inst;
    int n = 0;
    while (limited.next(inst))
        ++n;
    EXPECT_EQ(n, 3);
}

TEST(TraceIo, CollectRespectsLimit)
{
    SyntheticWorkload w(espresso());
    EXPECT_EQ(collect(w, 42).size(), 42u);
}

// Corruption is an environment problem, not a simulator bug: every
// detection path throws a structured BadTrace error naming the file
// and the violated field, so a sweep replaying many traces can skip
// the damaged one and keep going.

/** Expect a BadTrace SimError whose message contains @p substr. */
template <typename Fn>
void
expectBadTrace(Fn &&fn, const std::string &substr)
{
    try {
        fn();
        FAIL() << "expected BadTrace (" << substr << ")";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadTrace);
        EXPECT_NE(std::string(e.what()).find(substr),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIoErrors, MissingFileThrows)
{
    expectBadTrace(
        []() { FileTraceSource src("/nonexistent/never.aur3"); },
        "cannot open");
    expectBadTrace(
        []() { readTrace("/nonexistent/never.aur3"); }, "cannot open");
}

TEST(TraceIoErrors, CorruptMagicThrows)
{
    const std::string path = tempPath("corrupt.aur3");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTATRACEFILE...", f);
    std::fclose(f);
    expectBadTrace([&]() { FileTraceSource src(path); }, "magic");
    std::remove(path.c_str());
}

TEST(TraceIoErrors, UnsupportedVersionThrows)
{
    const auto insts = sampleInsts(8);
    const std::string path = tempPath("version.aur3");
    writeTrace(path, insts);
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
    const unsigned char bogus = 0x7f;
    ASSERT_EQ(std::fwrite(&bogus, 1, 1, f), 1u);
    std::fclose(f);
    expectBadTrace([&]() { FileTraceSource src(path); }, "version");
    std::remove(path.c_str());
}

TEST(TraceIoErrors, TruncatedHeaderThrows)
{
    const std::string path = tempPath("shortheader.aur3");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("AUR3", f); // magic only, header cut short
    std::fclose(f);
    expectBadTrace([&]() { FileTraceSource src(path); },
                   "truncated trace header");
    std::remove(path.c_str());
}

TEST(TraceIoErrors, TruncatedBodyThrows)
{
    // A body shorter than the header's count must be an error, not a
    // silently shorter trace (the old reader returned false and a
    // 400k-instruction replay would quietly become a 250k one).
    const auto insts = sampleInsts(32);
    const std::string path = tempPath("shortbody.aur3");
    writeTrace(path, insts);
    ASSERT_EQ(::truncate(path.c_str(), 16 + 24 * 16 + 7), 0);
    expectBadTrace([&]() { readTrace(path); }, "truncated trace body");
    std::remove(path.c_str());
}

TEST(TraceIoErrors, CorruptOpClassThrows)
{
    const auto insts = sampleInsts(16);
    const std::string path = tempPath("opclass.aur3");
    writeTrace(path, insts);
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // Op-class byte of record 5: header (16) + 5*24 + offset 12.
    ASSERT_EQ(std::fseek(f, 16 + 5 * 24 + 12, SEEK_SET), 0);
    const unsigned char bogus = 0xff;
    ASSERT_EQ(std::fwrite(&bogus, 1, 1, f), 1u);
    std::fclose(f);
    expectBadTrace([&]() { readTrace(path); }, "op class");
    std::remove(path.c_str());
}

} // namespace
