/**
 * @file
 * The five RunResult occupancy distributions against a per-cycle
 * recount.
 *
 * The processor samples each occupancy only on the cycles whose
 * events can change it: the ROB on a cycle that issued or retired,
 * the FP queues while the FPU holds work. An observer sees every
 * cycle (observed runs are single-stepped) and its onCycleEnd sample
 * carries the same five values, so histograms built from it, one
 * sample per cycle, must summarize to exactly what the run reports,
 * and to what an unobserved run reports.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/simulator.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using trace::Inst;
using trace::OpClass;

constexpr Count INSTS = 20'000;

/** Histograms of every cycle's onCycleEnd occupancy. */
class OccupancyRecount : public PipelineObserver
{
  public:
    explicit OccupancyRecount(const MachineConfig &m)
        : rob(m.rob_entries + 1), mshr(m.lsu.mshr_entries + 1),
          fp_instq(m.fpu.inst_queue + 1), fp_loadq(m.fpu.load_queue + 1),
          fp_storeq(m.fpu.store_queue + 1)
    {}

    void
    onCycleEnd(Cycle now, const OccupancySample &occ) override
    {
        EXPECT_EQ(now, cycles) << "a cycle went unobserved";
        ++cycles;
        rob.add(occ.rob);
        mshr.add(occ.mshr);
        fp_instq.add(occ.fp_instq);
        fp_loadq.add(occ.fp_loadq);
        fp_storeq.add(occ.fp_storeq);
        const bool fp_busy = occ.fp_instq || occ.fp_loadq ||
                             occ.fp_storeq || occ.fp_rob;
        if (fp_busy_ && !fp_busy)
            ++fp_drains;
        fp_busy_ = fp_busy;
    }

    Histogram rob, mshr, fp_instq, fp_loadq, fp_storeq;
    Cycle cycles = 0;
    /** Cycles on which the FPU went from holding work to empty. */
    Count fp_drains = 0;

  private:
    bool fp_busy_ = false;
};

void
expectSameStats(const OccupancyStats &got, const OccupancyStats &want,
                const char *what)
{
    EXPECT_EQ(got.mean, want.mean) << what;
    EXPECT_EQ(got.p50, want.p50) << what;
    EXPECT_EQ(got.p95, want.p95) << what;
    EXPECT_EQ(got.max, want.max) << what;
}

/** @p r's five distributions against @p recount's. */
void
expectRecounted(const RunResult &r, const OccupancyRecount &recount)
{
    using S = OccupancyStats;
    EXPECT_EQ(recount.cycles, r.cycles);
    expectSameStats(S::fromHistogram(recount.rob), r.rob_occupancy, "rob");
    expectSameStats(S::fromHistogram(recount.mshr), r.mshr_occupancy,
                    "mshr");
    expectSameStats(S::fromHistogram(recount.fp_instq),
                    r.fp_instq_occupancy, "fp_instq");
    expectSameStats(S::fromHistogram(recount.fp_loadq),
                    r.fp_loadq_occupancy, "fp_loadq");
    expectSameStats(S::fromHistogram(recount.fp_storeq),
                    r.fp_storeq_occupancy, "fp_storeq");
}

std::vector<trace::WorkloadProfile>
allProfiles()
{
    auto all = trace::integerSuite();
    const auto fp = trace::floatSuite();
    all.insert(all.end(), fp.begin(), fp.end());
    return all;
}

/**
 * Run @p insts on @p m observed and unobserved; check both results
 * against the recount. @return the recount.
 */
OccupancyRecount
crossCheck(const MachineConfig &m, const std::vector<Inst> &insts)
{
    OccupancyRecount recount(m);
    trace::VectorTraceSource observed_src(insts);
    Processor observed(m, observed_src);
    observed.setObserver(&recount);
    expectRecounted(observed.run(), recount);

    trace::VectorTraceSource skipped_src(insts);
    Processor skipped(m, skipped_src);
    expectRecounted(skipped.run(), recount);
    return recount;
}

std::vector<MachineConfig>
machines()
{
    return {smallModel().withLatency(100), baselineModel(),
            largeModel().withIssueWidth(1).withLatency(35)};
}

TEST(OccupancyRecount, AllProfilesAllStudyModels)
{
    const auto profiles = allProfiles();
    ASSERT_EQ(profiles.size(), 15u);
    for (const MachineConfig &m : machines())
        for (const auto &p : profiles) {
            SCOPED_TRACE(m.name + " lat=" +
                         std::to_string(m.biu.latency) + " " + p.name);
            trace::SyntheticWorkload w(p);
            crossCheck(m, trace::collect(w, INSTS));
        }
}

/** Integer instructions between two FP operations. */
constexpr unsigned GAP = 600;
/** FP operations in the trace (each kind a third of them). */
constexpr unsigned FP_OPS = 60;

/**
 * Isolated FpAdd, FpLoad and FpStore operations, in turn, each
 * followed by GAP independent integer ALU operations: at two per
 * cycle at best, a gap outlasts every FP latency and a memory miss
 * at latency 100, so the FPU drains before the next FP operation
 * arrives and re-arms on it.
 */
std::vector<Inst>
isolatedFpTrace()
{
    constexpr Addr FP_DATA = 0x40000;
    std::vector<Inst> v;
    Addr pc = 0x1000;
    const auto emit = [&](Inst inst) {
        inst.pc = pc;
        inst.next_pc = pc + 4;
        pc += 4;
        v.push_back(inst);
    };
    for (unsigned k = 0; k < FP_OPS; ++k) {
        Inst fp;
        switch (k % 3) {
          case 0:
            fp.op = OpClass::FpAdd;
            fp.fsrc_a = 2;
            fp.fsrc_b = 4;
            fp.fdst = 6;
            break;
          case 1:
            fp.op = OpClass::FpLoad;
            fp.fdst = 4;
            fp.src_a = 0;
            fp.eff_addr = FP_DATA + 8 * (k % 4);
            fp.size = 8;
            break;
          default:
            fp.op = OpClass::FpStore;
            fp.fsrc_a = 6;
            fp.src_a = 0;
            fp.eff_addr = FP_DATA + 64 + 8 * (k % 4);
            fp.size = 8;
            break;
        }
        emit(fp);
        for (unsigned i = 0; i < GAP; ++i) {
            Inst alu;
            alu.op = OpClass::IntAlu;
            alu.src_a = alu.src_b = 0;
            alu.dst = static_cast<RegIndex>(1 + i % 8);
            emit(alu);
        }
    }
    return v;
}

TEST(OccupancyRecount, FpuDrainsAndRearms)
{
    const std::vector<Inst> insts = isolatedFpTrace();
    for (const MachineConfig &m : machines()) {
        SCOPED_TRACE(m.name + " lat=" + std::to_string(m.biu.latency));
        const OccupancyRecount recount = crossCheck(m, insts);
        // The trace does what it is for: the FPU empties after every
        // FP operation, and every queue held work at some point.
        EXPECT_EQ(recount.fp_drains, FP_OPS);
        EXPECT_GT(recount.fp_instq.maxSample(), 0u);
        EXPECT_GT(recount.fp_loadq.maxSample(), 0u);
        EXPECT_GT(recount.fp_storeq.maxSample(), 0u);
    }
}

} // namespace
