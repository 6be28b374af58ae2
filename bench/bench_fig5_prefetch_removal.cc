/**
 * @file
 * Figure 5: effect of removing the prefetch buffers from the three
 * dual-issue models, at 17- and 35-cycle latencies. The figure plots
 * min/avg/max CPI with and without prefetching; the improvement
 * percentages quoted in §5.2 are printed alongside.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("Figure 5 - prefetch removal");

    const auto suite = tr::integerSuite();
    const Cycle latencies[] = {17, 35};
    bench::Grid grid;
    for (Cycle latency : latencies)
        for (const auto &base : studyModels())
            for (bool pf : {true, false})
                grid.add(base.withLatency(latency).withPrefetch(pf), suite);
    const auto &suites = grid.run();

    // Half the slices per latency: each model with, then without,
    // prefetch.
    auto next = suites.begin();
    for (Cycle latency : latencies) {
        Table t({"Model", "Prefetch", "Cost (RBE)", "CPI min",
                 "CPI avg", "CPI max", "avg improvement %"});
        double with_pf = 0.0;
        for (std::size_t i = 0; i < suites.size() / 2; ++i) {
            const auto &res = *next++;
            const auto &m = res.machine;
            const auto acc = res.cpiStats();
            auto &row = t.row()
                            .cell(m.name)
                            .cell(m.prefetch.enabled ? "yes" : "no")
                            .cell(m.rbeCost(), 0)
                            .cell(acc.min(), 3)
                            .cell(acc.mean(), 3)
                            .cell(acc.max(), 3);
            if (m.prefetch.enabled) {
                with_pf = acc.mean();
                row.cell("-");
            } else {
                row.cell(100.0 * (acc.mean() - with_pf) / acc.mean(), 1);
            }
        }
        t.print(std::cout,
                "Figure 5 data, " + std::to_string(latency) +
                    "-cycle secondary latency");
    }
    std::cout << "(paper: baseline improves 11% @17 / 19% @35; "
                 "large 11% / 17%; small barely changes)\n";
    grid.footer();
    return 0;
}
