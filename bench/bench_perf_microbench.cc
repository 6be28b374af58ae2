/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: trace
 * generation rate, the core replaying a collected integer or FP trace,
 * a lockstep unit replaying one shared trace, component costs, and end-to-end
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
