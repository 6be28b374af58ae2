/**
 * @file
 * Trace verifier tests: clean synthetic traces for every shipped
 * profile verify OK (including the declared-mix check), every
 * faultinject::corruptTraceFile mode is caught with its named
 * diagnostic, and the semantic checks (registers, alignment, operand
 * shape, PC continuity, def-before-use) fire on hand-built records.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analyze/verify_trace.hh"
#include "faultinject/faultinject.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "test_tmp.hh"

namespace
{

using namespace aurora;
using namespace aurora::trace;
using analyze::TraceCheckOptions;
using analyze::TraceReport;
using analyze::verifyTrace;
namespace fi = aurora::faultinject;

using aurora::test::tempPath;

std::size_t
countId(const TraceReport &report, const std::string &id)
{
    std::size_t n = 0;
    for (const analyze::Diagnostic &d : report.diagnostics)
        n += d.id == id ? 1 : 0;
    return n;
}

std::string
idList(const TraceReport &report)
{
    std::string out;
    for (const analyze::Diagnostic &d : report.diagnostics)
        out += d.id + " ";
    return out;
}

/** Write @p n synthetic instructions for @p profile to @p path. */
void
writeSynthetic(const std::string &path, const WorkloadProfile &profile,
               Count n)
{
    SyntheticWorkload w(profile);
    writeTrace(path, collect(w, n));
}

/** A minimal well-formed instruction: a NOP at @p pc. */
Inst
nop(Addr pc)
{
    Inst inst;
    inst.pc = pc;
    inst.next_pc = pc + 4;
    return inst;
}

TEST(VerifyTrace, EveryShippedProfileVerifiesCleanAgainstItself)
{
    // The mix check is tuned so every generator passes its own
    // declared profile: this is the ground truth that makes an AUR108
    // elsewhere meaningful.
    std::vector<WorkloadProfile> all = integerSuite();
    for (const WorkloadProfile &p : floatSuite())
        all.push_back(p);
    for (const WorkloadProfile &p : all) {
        SCOPED_TRACE(p.name);
        const std::string path = tempPath("clean.aur3");
        writeSynthetic(path, p, 4096);
        TraceCheckOptions options;
        options.profile = &p;
        const TraceReport report = verifyTrace(path, options);
        EXPECT_TRUE(report.ok()) << idList(report);
        EXPECT_EQ(countId(report, "AUR108"), 0u) << idList(report);
        EXPECT_EQ(report.records, 4096u);
        EXPECT_EQ(report.promised, 4096u);
        Count total = 0;
        for (const Count c : report.histogram)
            total += c;
        EXPECT_EQ(total, report.records);
        std::remove(path.c_str());
    }
}

TEST(VerifyTrace, EveryCorruptionModeIsCaughtWithItsNamedDiagnostic)
{
    const struct
    {
        fi::TraceFault fault;
        const char *id;
    } cases[] = {
        {fi::TraceFault::Magic, "AUR101"},
        {fi::TraceFault::Version, "AUR102"},
        {fi::TraceFault::OpClass, "AUR103"},
        {fi::TraceFault::Truncate, "AUR104"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.id);
        const std::string path = tempPath("corrupt.aur3");
        writeSynthetic(path, espresso(), 512);
        fi::corruptTraceFile(path, c.fault, /*seed=*/7);
        const TraceReport report = verifyTrace(path);
        EXPECT_FALSE(report.ok());
        EXPECT_GE(countId(report, c.id), 1u) << idList(report);
        std::remove(path.c_str());
    }
}

TEST(VerifyTrace, MissingFileIsAur101NotAThrow)
{
    const TraceReport report =
        verifyTrace(tempPath("never-written.aur3"));
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(countId(report, "AUR101"), 1u);
    EXPECT_EQ(report.records, 0u);
}

TEST(VerifyTrace, BadRegisterIndexIsAur105)
{
    Inst inst = nop(0x1000);
    inst.op = OpClass::IntAlu;
    inst.src_a = 40; // register files have 32 entries
    inst.dst = 1;
    const std::string path = tempPath("badreg.aur3");
    writeTrace(path, {inst});
    const TraceReport report = verifyTrace(path);
    EXPECT_EQ(countId(report, "AUR105"), 1u) << idList(report);
    std::remove(path.c_str());
}

TEST(VerifyTrace, MisalignedAndOddSizedAccessesAreAur106)
{
    Inst aligned = nop(0x1000);
    aligned.op = OpClass::Load;
    aligned.dst = 2;
    aligned.eff_addr = 0x2000;
    aligned.size = 4;

    Inst misaligned = aligned;
    misaligned.pc = 0x1004;
    misaligned.eff_addr = 0x2002; // 4-byte load at a 2-byte offset

    Inst odd_size = aligned;
    odd_size.pc = 0x1008;
    odd_size.size = 5;

    aligned.next_pc = misaligned.pc;
    misaligned.next_pc = odd_size.pc;

    const std::string path = tempPath("align.aur3");
    writeTrace(path, {aligned, misaligned, odd_size});
    const TraceReport report = verifyTrace(path);
    EXPECT_EQ(countId(report, "AUR106"), 2u) << idList(report);
    std::remove(path.c_str());
}

TEST(VerifyTrace, LoadsWithoutDestinationsAreAur109)
{
    Inst int_load = nop(0x1000);
    int_load.op = OpClass::Load;
    int_load.eff_addr = 0x2000;
    int_load.size = 4; // dst left NO_REG

    Inst fp_mul = nop(0x1004);
    fp_mul.op = OpClass::FpMul;
    fp_mul.fsrc_a = 1;
    fp_mul.fsrc_b = 2; // fdst left NO_REG

    int_load.next_pc = fp_mul.pc;

    const std::string path = tempPath("operands.aur3");
    writeTrace(path, {int_load, fp_mul});
    const TraceReport report = verifyTrace(path);
    EXPECT_EQ(countId(report, "AUR109"), 2u) << idList(report);
    std::remove(path.c_str());
}

TEST(VerifyTrace, PcDiscontinuityIsAur107AndCounted)
{
    Inst a = nop(0x1000);
    Inst b = nop(0x5000); // a.next_pc says 0x1004
    const std::string path = tempPath("pc.aur3");
    writeTrace(path, {a, b});
    const TraceReport report = verifyTrace(path);
    EXPECT_EQ(countId(report, "AUR107"), 1u) << idList(report);
    EXPECT_EQ(report.discontinuities, 1u);
    EXPECT_TRUE(report.ok()); // a warning, not an error
    std::remove(path.c_str());
}

TEST(VerifyTrace, LiveInsAreCountedAndExcessIsAur110)
{
    // 64 instructions each reading a distinct never-written register
    // (33 int + 31 fp > 32): the shuffled/spliced-input detector.
    std::vector<Inst> insts;
    Addr pc = 0x1000;
    for (unsigned r = 0; r < 32; ++r) {
        Inst inst = nop(pc);
        inst.op = OpClass::IntAlu;
        inst.src_a = static_cast<RegIndex>(r);
        insts.push_back(inst);
        pc += 4;
    }
    for (unsigned r = 0; r < 32; ++r) {
        Inst inst = nop(pc);
        inst.op = OpClass::FpAdd;
        inst.fsrc_a = static_cast<RegIndex>(r);
        inst.fdst = 31; // keep the operand shape legal
        insts.push_back(inst);
        pc += 4;
    }
    for (std::size_t i = 0; i + 1 < insts.size(); ++i)
        insts[i].next_pc = insts[i + 1].pc;

    const std::string path = tempPath("livein.aur3");
    writeTrace(path, insts);
    const TraceReport report = verifyTrace(path);
    EXPECT_EQ(report.int_live_ins, 32u);
    // fp31 is written by the first FpAdd, so reads of it afterwards
    // are defined; the other 31 are live-ins.
    EXPECT_EQ(report.fp_live_ins, 31u);
    EXPECT_EQ(countId(report, "AUR110"), 1u) << idList(report);
    std::remove(path.c_str());
}

TEST(VerifyTrace, DefBeforeUseAcceptsWriteThenRead)
{
    Inst def = nop(0x1000);
    def.op = OpClass::IntAlu;
    def.dst = 7;

    Inst use = nop(0x1004);
    use.op = OpClass::IntAlu;
    use.src_a = 7;
    def.next_pc = use.pc;

    const std::string path = tempPath("defuse.aur3");
    writeTrace(path, {def, use});
    const TraceReport report = verifyTrace(path);
    EXPECT_EQ(report.int_live_ins, 0u);
    EXPECT_TRUE(report.ok()) << idList(report);
    std::remove(path.c_str());
}

TEST(VerifyTrace, PerIdEmissionCapCountsButStopsEmitting)
{
    std::vector<Inst> insts;
    Addr pc = 0x1000;
    for (int i = 0; i < 20; ++i) {
        Inst inst = nop(pc);
        inst.op = OpClass::Load;
        inst.dst = 1;
        inst.eff_addr = 0x2001; // misaligned every time
        inst.size = 4;
        insts.push_back(inst);
        pc += 4;
    }
    for (std::size_t i = 0; i + 1 < insts.size(); ++i)
        insts[i].next_pc = insts[i + 1].pc;

    const std::string path = tempPath("cap.aur3");
    writeTrace(path, insts);
    const TraceReport report = verifyTrace(path);
    EXPECT_EQ(countId(report, "AUR106"), 8u) << idList(report);
    EXPECT_FALSE(report.ok());
    std::remove(path.c_str());
}

TEST(VerifyTrace, MixDriftAgainstTheWrongProfileIsAur108)
{
    // An integer trace judged against an FP-heavy profile: the
    // declared fp_arith fraction is far above the measured zero.
    const std::string path = tempPath("mix.aur3");
    writeSynthetic(path, espresso(), 4096);
    const WorkloadProfile wrong = nasa7();
    TraceCheckOptions options;
    options.profile = &wrong;
    const TraceReport report = verifyTrace(path, options);
    EXPECT_GE(countId(report, "AUR108"), 1u) << idList(report);
    EXPECT_TRUE(report.ok()); // drift warns; it does not reject
    std::remove(path.c_str());
}

TEST(VerifyTrace, MixCheckNeedsEnoughRecordsToBeMeaningful)
{
    const std::string path = tempPath("short.aur3");
    writeSynthetic(path, espresso(), 512); // below the 2048 floor
    const WorkloadProfile wrong = nasa7();
    TraceCheckOptions options;
    options.profile = &wrong;
    const TraceReport report = verifyTrace(path, options);
    EXPECT_EQ(countId(report, "AUR108"), 0u) << idList(report);
    std::remove(path.c_str());
}

TEST(VerifyTrace, SummaryNamesTheVerdictAndCounts)
{
    const std::string path = tempPath("summary.aur3");
    writeSynthetic(path, espresso(), 256);
    const TraceReport good = verifyTrace(path);
    EXPECT_NE(good.summary().find("OK"), std::string::npos);
    fi::corruptTraceFile(path, fi::TraceFault::Truncate);
    const TraceReport bad = verifyTrace(path);
    EXPECT_NE(bad.summary().find("BAD"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
