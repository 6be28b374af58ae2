/**
 * @file
 * Extension: multiprogramming and cache pollution.
 *
 * The Aurora III targets "a workstation or a high end PC system"
 * (§1), which timeshares. This bench interleaves two benchmarks at
 * decreasing context-switch quanta and measures how the small
 * on-chip structures (1-4 KB I-cache, 2-8-line write cache, stream
 * buffers) cope with the pollution — the smaller the machine, the
 * steeper the degradation.
 */

#include "bench_common.hh"

#include "core/processor.hh"
#include "trace/synthetic_workload.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

RunResult
mixed(const MachineConfig &m, Count quantum, Count insts)
{
    trace::SyntheticWorkload a(trace::espresso());
    trace::SyntheticWorkload b(trace::gcc());
    trace::InterleavedTraceSource mix({&a, &b}, quantum);
    trace::LimitedTraceSource limited(mix, insts);
    Processor cpu(m, limited);
    return cpu.run();
}

} // namespace

int
main()
{
    using namespace aurora;
    using namespace aurora::core;

    bench::banner("extension - context switching (espresso + gcc)");

    const Count insts = bench::runInsts();
    const MachineConfig models[] = {smallModel(), baselineModel(),
                                    largeModel()};
    const Count quanta[] = {50'000, 10'000, 2'000, 500};

    // Reference: the two programs run back to back (one switch),
    // i.e. the pollution-free mix of the same instructions.
    bench::Grid grid;
    for (const auto &m : models)
        grid.add(m, {trace::espresso(), trace::gcc()}, insts / 2);
    const auto &references = grid.run();

    // The interleaved stream is no SweepJob: run it as closures, one
    // per (quantum, model), through the same runner.
    std::vector<std::function<RunResult()>> tasks;
    for (const Count q : quanta)
        for (const auto &m : models)
            tasks.push_back([&m, q, insts] { return mixed(m, q, insts); });
    const auto mixes = grid.runner().runTasks(tasks);

    Table t({"quantum (insts)", "small", "baseline", "large"});
    auto &ref = t.row().cell("separate (reference)");
    for (const auto &res : references)
        ref.cell((res.runs[0].cpi() + res.runs[1].cpi()) / 2.0, 3);
    auto next = mixes.begin();
    for (const Count q : quanta) {
        auto &row = t.row().cell(q);
        for (std::size_t mi = 0; mi < std::size(models); ++mi)
            row.cell((next++)->cpi(), 3);
    }
    t.print(std::cout, "CPI vs context-switch quantum");
    std::cout
        << "(expected: CPI degrades as quanta shrink — each switch "
           "refills the small on-chip structures — and the small "
           "model degrades relatively most)\n";
    grid.footer();
    return 0;
}
