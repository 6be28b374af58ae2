/**
 * @file
 * Closed-form oracles for the FPU: hand-built FP loops whose cost per
 * operation follows from FpuConfig alone.
 *
 * Each kernel is a loop of FP operations closed by a taken branch and
 * its delay slot. The PCs repeat, so after the first trip the I-cache
 * is warm and the only thing that paces the loop is the FPU. Running
 * N and then 2N operations and subtracting cancels start-up (cold
 * I-cache, queue fill) and drain, leaving N times the per-operation
 * cost. Every kernel runs under all three issue policies, both
 * single-stepped (an observer attached) and event-skipped, and the two
 * runs must agree byte for byte.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/processor.hh"
#include "core/machine_config.hh"
#include "harness/journal.hh"
#include "trace/trace_source.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using trace::Inst;
using trace::OpClass;

/** FP operations per loop trip. */
constexpr unsigned BODY = 8;
/** Loop trips of the shorter run; the longer one runs twice as many. */
constexpr unsigned TRIPS = 50;
/** FP operations the longer run adds. */
constexpr Count N = Count{BODY} * TRIPS;

/** Receives every event and ignores it; forces single-stepping. */
struct NullObserver : PipelineObserver
{};

/** The register pattern of a kernel's FP operations. */
enum class Deps
{
    Chain,       ///< each op reads the previous op's result
    Independent, ///< no op reads another's result
};

/**
 * @p trips trips of BODY @p op operations at 0x1000.., then a branch
 * (taken back to 0x1000 on every trip but the last) and its delay slot.
 */
std::vector<Inst>
fpLoop(OpClass op, Deps deps, unsigned trips)
{
    constexpr Addr BASE = 0x1000;
    std::vector<Inst> v;
    for (unsigned trip = 0; trip < trips; ++trip) {
        for (unsigned i = 0; i < BODY; ++i) {
            Inst f;
            f.op = op;
            f.pc = BASE + 4 * i;
            f.fsrc_a = 2;
            f.fsrc_b = 4;
            f.fdst = deps == Deps::Chain ? RegIndex{2}
                                         : static_cast<RegIndex>(6 + 2 * i);
            v.push_back(f);
        }
        Inst br;
        br.op = OpClass::Branch;
        br.pc = BASE + 4 * BODY;
        br.taken = trip + 1 < trips;
        v.push_back(br);
        Inst slot;
        slot.op = OpClass::Nop;
        slot.pc = br.pc + 4;
        v.push_back(slot);
    }
    for (std::size_t i = 0; i + 1 < v.size(); ++i)
        v[i].next_pc = v[i + 1].pc;
    v.back().next_pc = v.back().pc + 4;
    return v;
}

RunResult
runLoop(const MachineConfig &m, const std::vector<Inst> &insts,
        PipelineObserver *obs)
{
    trace::VectorTraceSource src(insts);
    Processor cpu(m, src);
    cpu.setObserver(obs);
    return cpu.run();
}

/** A run, stepped and skipped alike. */
RunResult
runBothWays(const MachineConfig &m, const std::vector<Inst> &insts)
{
    NullObserver obs;
    const RunResult stepped = runLoop(m, insts, &obs);
    const RunResult skipped = runLoop(m, insts, nullptr);
    EXPECT_EQ(harness::runResultBytes(skipped),
              harness::runResultBytes(stepped))
        << "skipped and stepped runs differ";
    return skipped;
}

/** What the N extra operations of the longer run cost. */
struct Delta
{
    Cycle cycles = 0;
    Cycle issuing = 0;
    Cycle tail = 0;
    StallCycles stalls{};
};

Delta
extraCost(const MachineConfig &m, OpClass op, Deps deps)
{
    const RunResult shorter = runBothWays(m, fpLoop(op, deps, TRIPS));
    const RunResult longer = runBothWays(m, fpLoop(op, deps, 2 * TRIPS));
    EXPECT_EQ(longer.fpu.issued - shorter.fpu.issued, N);
    Delta d;
    d.cycles = longer.cycles - shorter.cycles;
    d.issuing = longer.issuing_cycles - shorter.issuing_cycles;
    d.tail = longer.tail_cycles - shorter.tail_cycles;
    for (std::size_t c = 0; c < NUM_STALL_CAUSES; ++c)
        d.stalls[c] = longer.stalls[c] - shorter.stalls[c];
    return d;
}

/**
 * The extra operations cost @p per_op cycles each, and every extra
 * cycle that issued nothing is an FP-Queue stall.
 */
void
expectCost(const MachineConfig &m, OpClass op, Deps deps, Cycle per_op)
{
    const Delta d = extraCost(m, op, deps);
    const std::string where =
        std::string(trace::opClassName(op)) + " under " +
        fpu::issuePolicyName(m.fpu.policy);
    EXPECT_EQ(d.cycles, N * per_op) << where;
    EXPECT_EQ(d.tail, 0u) << where;
    for (std::size_t c = 0; c < NUM_STALL_CAUSES; ++c) {
        const auto cause = static_cast<StallCause>(c);
        const Cycle expected = cause == StallCause::FpQueue
                                   ? d.cycles - d.issuing
                                   : 0;
        EXPECT_EQ(d.stalls[c], expected)
            << where << ": stall " << stallCauseName(cause);
    }
}

/** The default FPU and one with every latency moved. */
std::vector<MachineConfig>
machines()
{
    MachineConfig moved = baselineModel();
    moved.fpu.add.latency = 5;
    moved.fpu.mul.latency = 4;
    moved.fpu.div.latency = 12;
    return {baselineModel(), moved};
}

constexpr fpu::IssuePolicy POLICIES[] = {
    fpu::IssuePolicy::InOrderComplete,
    fpu::IssuePolicy::OutOfOrderSingle,
    fpu::IssuePolicy::OutOfOrderDual,
};

TEST(FpuOracle, DependentAddChainCostsAddLatencyPerOp)
{
    for (MachineConfig m : machines())
        for (const auto policy : POLICIES) {
            m.fpu.policy = policy;
            expectCost(m, OpClass::FpAdd, Deps::Chain, m.fpu.add.latency);
        }
}

TEST(FpuOracle, DependentDivChainCostsDivLatencyPerOp)
{
    for (MachineConfig m : machines())
        for (const auto policy : POLICIES) {
            m.fpu.policy = policy;
            expectCost(m, OpClass::FpDiv, Deps::Chain, m.fpu.div.latency);
        }
}

TEST(FpuOracle, IndependentMulStreamCostsOneCyclePerOp)
{
    for (MachineConfig m : machines()) {
        // Preconditions of one issue per cycle on the pipelined unit:
        // the FP reorder buffer holds the mul.latency operations in
        // flight (an entry allocated at issue retires on its
        // completion cycle, before that cycle's issue), a result bus
        // takes the one completion per cycle, and the dual-issue IPU
        // can dispatch the loop's branch and delay slot beside the
        // operations without starving the queue.
        ASSERT_TRUE(m.fpu.mul.pipelined);
        ASSERT_GE(m.fpu.rob_entries, m.fpu.mul.latency);
        ASSERT_GE(m.fpu.result_buses, 1u);
        ASSERT_EQ(m.issue_width, 2u);
        for (const auto policy : POLICIES) {
            m.fpu.policy = policy;
            expectCost(m, OpClass::FpMul, Deps::Independent, 1);
        }
    }
}

} // namespace
