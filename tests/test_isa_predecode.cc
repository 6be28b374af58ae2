/**
 * @file
 * Unit tests for the Figure 3 predecode logic: the pairing rules, and
 * the predecoded flags every trace provider writes, each checked
 * against its definition for every instruction of all 15 profiles.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulator.hh"
#include "isa/predecode.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "trace/trace_source.hh"
#include "util/rng.hh"

namespace
{

using namespace aurora;
using namespace aurora::isa;
using trace::Inst;
using trace::OpClass;

Inst
at(Addr pc, OpClass op = OpClass::IntAlu, RegIndex a = 1,
   RegIndex b = 2, RegIndex d = 8)
{
    Inst i;
    i.pc = pc;
    i.next_pc = pc + 4;
    i.op = op;
    i.src_a = a;
    i.src_b = b;
    i.dst = d;
    return i;
}

TEST(Predecode, AlignedPairDetection)
{
    EXPECT_TRUE(isAlignedPair(at(0x1000), at(0x1004)));
    EXPECT_FALSE(isAlignedPair(at(0x1004), at(0x1008)))
        << "0x1004 is an ODD slot";
    EXPECT_FALSE(isAlignedPair(at(0x1000), at(0x1008)))
        << "not consecutive";
}

TEST(Predecode, TrueDependencyOnIntegerResult)
{
    const Inst producer = at(0x1000, OpClass::IntAlu, 1, 2, 8);
    EXPECT_TRUE(trueDependency(producer,
                               at(0x1004, OpClass::IntAlu, 8, 3, 9)));
    EXPECT_TRUE(trueDependency(producer,
                               at(0x1004, OpClass::IntAlu, 3, 8, 9)));
    EXPECT_FALSE(trueDependency(producer,
                                at(0x1004, OpClass::IntAlu, 3, 4, 9)));
}

TEST(Predecode, RegisterZeroIsNeverADependency)
{
    Inst producer = at(0x1000, OpClass::IntAlu, 1, 2, 0);
    EXPECT_FALSE(trueDependency(producer,
                                at(0x1004, OpClass::IntAlu, 0, 0, 9)))
        << "$zero is hardwired";
}

TEST(Predecode, FpDependency)
{
    Inst producer = at(0x1000, OpClass::FpAdd);
    producer.dst = NO_REG;
    producer.fdst = 6;
    Inst consumer = at(0x1004, OpClass::FpMul);
    consumer.src_a = consumer.src_b = NO_REG;
    consumer.fsrc_a = 6;
    EXPECT_TRUE(trueDependency(producer, consumer));
    consumer.fsrc_a = 8;
    consumer.fsrc_b = 6;
    EXPECT_TRUE(trueDependency(producer, consumer));
    consumer.fsrc_b = 10;
    EXPECT_FALSE(trueDependency(producer, consumer));
}

TEST(Predecode, DualIssueRules)
{
    // Independent pair: allowed.
    EXPECT_TRUE(dualIssueAllowed(at(0x1000),
                                 at(0x1004, OpClass::IntAlu, 3, 4, 9)));
    // Dependent pair: the DI bit.
    EXPECT_FALSE(dualIssueAllowed(
        at(0x1000, OpClass::IntAlu, 1, 2, 8),
        at(0x1004, OpClass::IntAlu, 8, 4, 9)));
    // Two memory operations: single memory access per cycle.
    Inst m1 = at(0x1000, OpClass::Load, 1, NO_REG, 8);
    Inst m2 = at(0x1004, OpClass::Store, 2, 3, NO_REG);
    EXPECT_FALSE(dualIssueAllowed(m1, m2));
    // Memory + ALU is fine.
    EXPECT_TRUE(dualIssueAllowed(m1,
                                 at(0x1004, OpClass::IntAlu, 3, 4,
                                    9)));
    // Misaligned: never.
    EXPECT_FALSE(dualIssueAllowed(at(0x1004), at(0x1008)));
}

TEST(Predecode, BranchPlusDelaySlotCanPair)
{
    Inst br = at(0x1000, OpClass::Branch, 1, 2, NO_REG);
    br.dst = NO_REG;
    const Inst slot = at(0x1004, OpClass::IntAlu, 3, 4, 9);
    EXPECT_TRUE(dualIssueAllowed(br, slot));
}

TEST(Predecode, WorkloadPairsNeverHoldTwoControlOps)
{
    // The MIPS delay-slot rule: no aligned pair the generator emits
    // holds two control instructions.
    trace::SyntheticWorkload w(trace::gcc());
    Inst prev, cur;
    ASSERT_TRUE(w.next(prev));
    for (int i = 0; i < 50000; ++i) {
        ASSERT_TRUE(w.next(cur));
        ASSERT_FALSE(isAlignedPair(prev, cur) &&
                     trace::isControl(prev.op) && trace::isControl(cur.op))
            << "pair at " << std::hex << prev.pc;
        prev = cur;
    }
}

/**
 * The flags of @p cur that differ from their definitions, by name
 * ("" when all agree). @p prev is the instruction before @p cur in
 * the stream, or nullptr at its start.
 */
std::string
flagMismatch(const Inst *prev, const Inst &cur)
{
    const struct
    {
        const char *name;
        Predecoded bit;
        bool want;
    } flags[] = {
        {"valid", PD_VALID, true},
        {"mem", PD_MEM, trace::isMem(cur.op)},
        {"fp_load", PD_FP_LOAD, cur.op == OpClass::FpLoad},
        {"fp_store", PD_FP_STORE, cur.op == OpClass::FpStore},
        {"fp_arith", PD_FP_ARITH, trace::isFpArith(cur.op)},
        {"redirect", PD_REDIRECT, cur.redirectsFetch()},
        {"odd_mate", PD_ODD_MATE,
         prev && (cur.pc >> 3) == (prev->pc >> 3) && (cur.pc & 0x4u)},
        {"dual", PD_DUAL, prev && dualIssueAllowed(*prev, cur)},
    };
    std::string wrong;
    for (const auto &f : flags)
        if (((cur.predecoded & f.bit) != 0) != f.want)
            wrong += std::string(wrong.empty() ? "" : ",") + f.name;
    return wrong;
}

/** Check every record of @p stream, which starts a trace. */
void
expectPredecoded(const std::vector<Inst> &stream)
{
    for (std::size_t i = 0; i < stream.size(); ++i)
        ASSERT_EQ(flagMismatch(i ? &stream[i - 1] : nullptr, stream[i]),
                  "")
            << "instruction " << i << " (pc " << std::hex
            << stream[i].pc << ")";
}

/** Everything @p src delivers, read in views of @p span. */
std::vector<Inst>
readAll(trace::TraceSource &src, std::size_t span)
{
    std::vector<Inst> out;
    for (auto view = src.read(span); !view.empty();
         view = src.read(span))
        out.insert(out.end(), view.begin(), view.end());
    return out;
}

std::vector<trace::WorkloadProfile>
allProfiles()
{
    auto all = trace::integerSuite();
    const auto fp = trace::floatSuite();
    all.insert(all.end(), fp.begin(), fp.end());
    return all;
}

/** Long enough to wrap the 512-slot trace window several times. */
constexpr Count N = 10000;

/** Records every issued instruction, in order (issue is in order). */
class IssueLog : public core::PipelineObserver
{
  public:
    void
    onIssue(Cycle, const Inst &inst, unsigned) override
    {
        issued.push_back(inst);
    }

    std::vector<Inst> issued;
};

void
expectWindowPredecoded(const std::vector<core::MachineConfig> &machines)
{
    for (const auto &profile : allProfiles()) {
        SCOPED_TRACE(profile.name);
        std::vector<IssueLog> logs(machines.size());
        std::vector<core::PipelineObserver *> observers;
        for (IssueLog &log : logs)
            observers.push_back(&log);
        const core::SharedRun run = core::simulateShared(
            machines, profile, N, core::defaultWatchdog(), observers);
        for (std::size_t m = 0; m < machines.size(); ++m) {
            SCOPED_TRACE(machines[m].name);
            ASSERT_FALSE(run.machines[m].error);
            ASSERT_EQ(logs[m].issued.size(), N);
            expectPredecoded(logs[m].issued);
        }
    }
}

TEST(PredecodeFlags, WindowCursorOneMachine)
{
    // One reader: each round refills up to one window past it, so
    // blocks begin mid-ring and split where the ring wraps.
    expectWindowPredecoded({core::baselineModel()});
}

TEST(PredecodeFlags, WindowCursorSixMachines)
{
    // Six readers at different speeds: blocks start wherever the
    // slowest reader left the ring.
    std::vector<core::MachineConfig> machines;
    for (const auto &m : core::studyModels()) {
        machines.push_back(m);
        machines.push_back(m.withLatency(35));
    }
    ASSERT_EQ(machines.size(), 6u);
    expectWindowPredecoded(machines);
}

TEST(PredecodeFlags, VectorTraceSource)
{
    ASSERT_EQ(allProfiles().size(), 15u);
    for (const auto &profile : allProfiles()) {
        SCOPED_TRACE(profile.name);
        trace::SyntheticWorkload w(profile);
        trace::VectorTraceSource src(trace::collect(w, N));
        expectPredecoded(src.insts());
        EXPECT_EQ(readAll(src, 64).size(), N);
    }
}

TEST(PredecodeFlags, StagedReadThroughLimitedSource)
{
    // Odd view sizes put view boundaries at every pair position.
    for (const auto &profile : allProfiles()) {
        for (const std::size_t span : {1u, 7u, 64u}) {
            SCOPED_TRACE(profile.name + " span " + std::to_string(span));
            trace::SyntheticWorkload w(profile);
            trace::LimitedTraceSource src(w, N);
            const auto stream = readAll(src, span);
            ASSERT_EQ(stream.size(), N);
            expectPredecoded(stream);
        }
    }
}

TEST(PredecodeFlags, StagedReadThroughInterleavedSource)
{
    // Context switches splice two streams: the pair bits follow the
    // delivered stream, not either source's own.
    const auto profiles = allProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto &other = profiles[(i + 1) % profiles.size()];
        SCOPED_TRACE(profiles[i].name + "+" + other.name);
        trace::SyntheticWorkload a(profiles[i]);
        trace::SyntheticWorkload b(other);
        trace::LimitedTraceSource la(a, N / 2);
        trace::LimitedTraceSource lb(b, N / 2);
        trace::InterleavedTraceSource src({&la, &lb}, 37);
        const auto stream = readAll(src, 64);
        ASSERT_EQ(stream.size(), N);
        EXPECT_GT(src.switches(), 0u);
        expectPredecoded(stream);
    }
}


TEST(PredecodeFlags, RandomRecordsEveryFieldCorner)
{
    // Records no profile makes: register 0 and NO_REG in every field,
    // pairs in and out of alignment, every op class taken or not.
    // Each field draws from a few values so the corners recur often.
    Rng rng(7);
    const RegIndex regs[] = {0, 1, 2, NO_REG};
    const auto reg = [&] { return regs[rng.range(0, 3)]; };
    std::vector<Inst> stream(20'000);
    Addr pc = 0x1000;
    for (Inst &inst : stream) {
        pc = rng.chance(0.7) ? pc + 4 : 0x1000 + 4 * rng.range(0, 15);
        inst.pc = pc;
        inst.next_pc = pc + 4;
        inst.op = static_cast<OpClass>(
            rng.range(0, trace::NUM_OP_CLASSES - 1));
        inst.taken = rng.chance(0.5);
        inst.src_a = reg();
        inst.src_b = reg();
        inst.dst = reg();
        inst.fsrc_a = reg();
        inst.fsrc_b = reg();
        inst.fdst = reg();
    }
    // In blocks of every length up to 7, each against the record
    // before it, as the trace window predecodes them.
    std::size_t begin = 0;
    for (std::size_t len = 1; begin < stream.size(); len = len % 7 + 1) {
        const std::size_t n = std::min(len, stream.size() - begin);
        predecode(std::span<Inst>(stream).subspan(begin, n),
                  begin ? &stream[begin - 1] : nullptr);
        begin += n;
    }
    expectPredecoded(stream);
}

} // namespace
