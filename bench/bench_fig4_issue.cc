/**
 * @file
 * Figure 4: dual and single issue performance vs. cost for the three
 * machine models at 17- and 35-cycle secondary latencies (12
 * configurations). Prints, per configuration, the RBE cost and the
 * min/average/max CPI over the SPECint92 suite — the quantities the
 * figure plots as capped vertical bars. The whole 13-config × 6-bench
 * grid is submitted to the sweep engine as one batch.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("Figure 4 - issue width vs cost vs latency");

    const auto suite = tr::integerSuite();
    const Cycle latencies[] = {17, 35};

    // One grid: (latency × model × width) configs, suite each, then
    // the unmodified baseline for the headline §5 statistics.
    bench::Grid grid;
    for (Cycle latency : latencies)
        for (const auto &base : studyModels())
            for (unsigned width : {1u, 2u})
                grid.add(base.withIssueWidth(width).withLatency(latency),
                         suite);
    grid.add(baselineModel(), suite);
    const auto &suites = grid.run();

    const std::size_t per_latency =
        (suites.size() - 1) / std::size(latencies);
    auto next = suites.begin();
    for (Cycle latency : latencies) {
        Table t({"Model", "Issue", "Cost (RBE)", "CPI min",
                 "CPI avg", "CPI max"});
        for (std::size_t i = 0; i < per_latency; ++i) {
            const auto &res = *next++;
            const auto &m = res.machine;
            const auto acc = res.cpiStats();
            t.row()
                .cell(m.name)
                .cell(std::uint64_t{m.issue_width})
                .cell(m.rbeCost(), 0)
                .cell(acc.min(), 3)
                .cell(acc.mean(), 3)
                .cell(acc.max(), 3);
        }
        t.print(std::cout,
                "Figure 4 data, " + std::to_string(latency) +
                    "-cycle secondary latency");
    }

    Accumulator ic, dc;
    for (const auto &r : suites.back().runs) {
        ic.add(r.icache_hit_pct);
        dc.add(r.dcache_hit_pct);
    }
    std::cout << "Baseline I-cache hit rate: "
              << formatFixed(ic.mean(), 1)
              << "%  (paper: 96.5%)\nBaseline D-cache hit rate: "
              << formatFixed(dc.mean(), 1) << "%  (paper: 95.4%)\n";
    grid.footer();
    return 0;
}
