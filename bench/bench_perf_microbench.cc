/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: trace
 * generation rate, the core replaying a collected integer or FP trace,
 * a lockstep unit replaying one shared trace, the fixed cost of a
 * stepped cycle, component costs, and end-to-end
 * simulation throughput. These guard against
 * performance regressions in the library (the table/figure harness
 * runs millions of instructions).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "core/simulator.hh"
#include "mem/cache.hh"
#include "mem/write_cache.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"

namespace
{

using namespace aurora;

/** Synthesis alone, in the 512-instruction blocks a sweep fills. */
void
BM_TraceGeneration(benchmark::State &state)
{
    trace::SyntheticWorkload w(trace::espresso());
    std::vector<trace::Inst> block(512);
    for (auto _ : state) {
        w.fill(block);
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(block.size()) *
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceGeneration);

/** The core alone: the large model replaying a pre-collected trace. */
void
BM_CoreReplay(benchmark::State &state)
{
    const auto machine = core::largeModel().withLatency(5);
    trace::SyntheticWorkload w(trace::espresso());
    trace::VectorTraceSource source(
        trace::collect(w, static_cast<Count>(state.range(0))));
    for (auto _ : state) {
        source.rewind();
        core::Processor cpu(machine, source);
        benchmark::DoNotOptimize(cpu.run().cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(source.insts().size()) *
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoreReplay)->Arg(50000)->Unit(benchmark::kMillisecond);

/**
 * The core's FPU path alone: the small model at a 100-cycle latency
 * (stall_bound's machine) replaying a pre-collected nasa7 trace.
 */
void
BM_FpCoreReplay(benchmark::State &state)
{
    const auto machine = core::smallModel().withLatency(100);
    trace::SyntheticWorkload w(trace::nasa7());
    trace::VectorTraceSource source(
        trace::collect(w, static_cast<Count>(state.range(0))));
    for (auto _ : state) {
        source.rewind();
        core::Processor cpu(machine, source);
        benchmark::DoNotOptimize(cpu.run().cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(source.insts().size()) *
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FpCoreReplay)->Arg(50000)->Unit(benchmark::kMillisecond);

/**
 * Replay through the shared trace window: the six study machines
 * (three models at issue width 1 and 2) of one lockstep unit over one
 * synthesized espresso trace. Items are machine-instructions.
 */
void
BM_LockstepReplay(benchmark::State &state)
{
    std::vector<core::MachineConfig> machines;
    for (const core::MachineConfig &model : core::studyModels())
        for (const unsigned issue : {1u, 2u})
            machines.push_back(model.withIssueWidth(issue));
    const auto profile = trace::espresso();
    const auto insts = static_cast<Count>(state.range(0));
    for (auto _ : state) {
        const auto run = core::simulateShared(machines, profile, insts);
        benchmark::DoNotOptimize(run.machines.front().result.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(insts * machines.size()) *
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LockstepReplay)->Arg(50000)->Unit(benchmark::kMillisecond);

/**
 * A straight dual-issue IntAlu loop: 32 instructions in four I-cache
 * lines, closed by a taken branch whose delay slot is its pair mate.
 * No memory op, no dependency inside a pair, so after the cold
 * I-cache misses every cycle issues two instructions.
 */
std::vector<trace::Inst>
intAluLoop(Count n)
{
    constexpr Addr BASE = 0x1000;
    constexpr unsigned BODY = 32;
    constexpr unsigned BRANCH = BODY - 2;
    std::vector<trace::Inst> insts(n);
    for (Count i = 0; i < n; ++i) {
        trace::Inst &inst = insts[i];
        const auto slot = static_cast<unsigned>(i % BODY);
        inst.pc = BASE + 4 * slot;
        inst.next_pc = slot == BODY - 1 ? BASE : inst.pc + 4;
        inst.src_a = inst.src_b = 0;
        if (slot == BRANCH) {
            inst.op = trace::OpClass::Branch;
            inst.taken = true;
        } else {
            inst.op = trace::OpClass::IntAlu;
            inst.dst = static_cast<RegIndex>(1 + slot % 8);
        }
    }
    return insts;
}

/**
 * The fixed cost of a stepped cycle: the large model replaying
 * intAluLoop(), which never skips a cycle, never misses after warm-up
 * and never wakes the FPU. Reports host time per simulated cycle.
 */
void
BM_SteppedCycle(benchmark::State &state)
{
    const auto machine = core::largeModel();
    trace::VectorTraceSource source(
        intAluLoop(static_cast<Count>(state.range(0))));
    Cycle cycles = 0;
    for (auto _ : state) {
        source.rewind();
        core::Processor cpu(machine, source);
        cycles += cpu.run().cycles;
    }
    // Host seconds per simulated cycle, printed with an SI prefix.
    state.counters["per_cycle"] = benchmark::Counter(
        static_cast<double>(cycles),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(source.insts().size()) *
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SteppedCycle)->Arg(200000)->Unit(benchmark::kMillisecond);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::DirectMappedCache cache(32 * 1024, 32);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        cache.fill(addr);
        addr += 36; // mixes hits and conflicts
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_WriteCacheStore(benchmark::State &state)
{
    mem::Biu biu(mem::BiuConfig{});
    mem::WriteCache wc(mem::WriteCacheConfig{}, biu);
    Addr addr = 0x1000;
    Cycle now = 0;
    for (auto _ : state) {
        wc.store(addr, 4, now++);
        addr = (addr + 68) & 0xffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteCacheStore);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    const auto machine = core::baselineModel();
    const auto profile = trace::espresso();
    const auto insts = static_cast<Count>(state.range(0));
    for (auto _ : state) {
        const auto r = core::simulate(machine, profile, insts);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(insts) *
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EndToEndSimulation)->Arg(50000)->Unit(
    benchmark::kMillisecond);

void
BM_FpSimulation(benchmark::State &state)
{
    const auto machine = core::baselineModel();
    const auto profile = trace::nasa7();
    for (auto _ : state) {
        const auto r = core::simulate(machine, profile, 50000);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(50000 *
                            static_cast<std::int64_t>(
                                state.iterations()));
}
BENCHMARK(BM_FpSimulation)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
