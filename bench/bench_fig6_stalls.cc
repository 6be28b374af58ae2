/**
 * @file
 * Figure 6: breakdown of execution-unit stall penalties. For each
 * machine model the CPI penalty contributed by each of the stall
 * conditions (instruction cache, load-use, reorder-buffer full, LSU
 * busy) is printed, averaged over the SPECint92 suite, plus the
 * per-benchmark rows behind the average.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("Figure 6 - stall penalty breakdown (CPI)");

    const auto suite = tr::integerSuite();
    bench::Grid grid;
    for (const auto &m : studyModels())
        grid.add(m, suite);
    const auto &suites = grid.run();

    Table avg({"Model", "ICache", "Load", "ROB-Full", "LSU-Busy",
               "total stall", "CPI"});
    for (const auto &res : suites) {
        const double ic = res.avgStallCpi(StallCause::ICache);
        const double ld = res.avgStallCpi(StallCause::Load);
        const double rob = res.avgStallCpi(StallCause::RobFull);
        const double lsu = res.avgStallCpi(StallCause::LsuBusy);
        avg.row()
            .cell(res.machine.name)
            .cell(ic, 3)
            .cell(ld, 3)
            .cell(rob, 3)
            .cell(lsu, 3)
            .cell(ic + ld + rob + lsu, 3)
            .cell(res.avgCpi(), 3);
    }
    avg.print(std::cout, "Figure 6 data (suite averages, dual issue, "
                         "17-cycle latency)");

    for (const auto &res : suites) {
        Table t({"benchmark", "ICache", "Load", "ROB-Full",
                 "LSU-Busy", "CPI"});
        for (const auto &r : res.runs) {
            t.row()
                .cell(r.benchmark)
                .cell(r.stallCpi(StallCause::ICache), 3)
                .cell(r.stallCpi(StallCause::Load), 3)
                .cell(r.stallCpi(StallCause::RobFull), 3)
                .cell(r.stallCpi(StallCause::LsuBusy), 3)
                .cell(r.cpi(), 3);
        }
        t.print(std::cout, "per-benchmark, model = " + res.machine.name);
    }
    std::cout << "(paper: small model dominated by LSU-busy; base and "
                 "large dominated by I-miss and load stalls)\n";
    grid.footer();
    return 0;
}
