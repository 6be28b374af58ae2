/**
 * @file
 * Figure 9 (d), (e), (f), (g): FPU functional-unit latency studies —
 * CPI and unit area (RBE) across the implementable latency ranges of
 * the add, multiply, divide and convert units, plus the §5.10
 * non-pipelined add/multiply ablation.
 */

#include "bench_common.hh"

#include "cost/rbe.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;

    bench::banner("Figure 9d-g - FPU unit latencies");

    // One latency sweep per functional unit, Figure 9(d)-(g).
    struct Sweep
    {
        const char *title;
        const char *header;
        fpu::FpUnitConfig fpu::FpuConfig::*unit;
        std::vector<Cycle> latencies;
        double (*rbe)(Cycle);
    };
    const Sweep sweeps[] = {
        {"Figure 9(d): add unit", "add latency", &fpu::FpuConfig::add,
         {1, 2, 3, 4, 5}, [](Cycle l) { return cost::fpAddRbe(l, true); }},
        {"Figure 9(e): multiply unit", "multiply latency",
         &fpu::FpuConfig::mul, {1, 2, 3, 4, 5},
         [](Cycle l) { return cost::fpMulRbe(l, true); }},
        {"Figure 9(f): divide unit", "divide latency",
         &fpu::FpuConfig::div, {10, 15, 19, 25, 30}, cost::fpDivRbe},
        {"Figure 9(g): conversion unit", "convert latency",
         &fpu::FpuConfig::cvt, {1, 2, 3, 4, 5}, cost::fpCvtRbe},
    };

    // Every latency point and both §5.10 ablation machines over
    // SPECfp92, queued as one grid: each FP trace is synthesized once.
    const auto suite = trace::floatSuite();
    bench::Grid grid;
    for (const Sweep &sweep : sweeps) {
        for (Cycle lat : sweep.latencies) {
            auto m = baselineModel();
            (m.fpu.*sweep.unit).latency = lat;
            grid.add(m, suite);
        }
    }
    auto iter = baselineModel();
    iter.fpu.add.pipelined = false;
    iter.fpu.mul.pipelined = false;
    grid.add(baselineModel(), suite);
    grid.add(iter, suite);
    const auto &suites = grid.run();

    auto next = suites.begin();
    for (const Sweep &sweep : sweeps) {
        Table t({sweep.header, "CPI avg", "unit RBE"});
        for (Cycle lat : sweep.latencies)
            t.row()
                .cell(std::uint64_t{lat})
                .cell((next++)->avgCpi(), 3)
                .cell(sweep.rbe(lat), 0);
        t.print(std::cout, sweep.title);
    }

    // §5.10 ablation: iterative (non-pipelined) add and multiply.
    Table abl({"configuration", "CPI avg", "add+mul RBE"});
    abl.row()
        .cell("pipelined add & multiply")
        .cell(next[0].avgCpi(), 3)
        .cell(cost::fpAddRbe(3, true) + cost::fpMulRbe(5, true), 0);
    abl.row()
        .cell("iterative add & multiply")
        .cell(next[1].avgCpi(), 3)
        .cell(cost::fpAddRbe(3, false) + cost::fpMulRbe(5, false), 0);
    abl.print(std::cout, "S5.10 pipelining ablation");
    std::cout << "(paper: add/multiply each swing CPI ~17% over 1-5 "
                 "cycles, divide ~8% over 10-30, conversion is "
                 "insensitive; removing pipeline latches costs <5% "
                 "performance and saves ~25% of unit area)\n";
    grid.footer();
    return 0;
}
