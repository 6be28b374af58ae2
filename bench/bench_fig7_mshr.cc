/**
 * @file
 * Figure 7: effect of changing the MSHR count (degree of
 * non-blocking of the data cache). The standard dual-issue models
 * are compared against MSHR variations: small and baseline doubled
 * (1->2, 2->4), large reduced (4->2 and 4->1), plus a full 1..8
 * sweep per model.
 */

#include <algorithm>

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("Figure 7 - MSHR count variations");

    const auto suite = tr::integerSuite();
    const unsigned mshrs[] = {1, 2, 4, 8};
    bench::Grid grid;
    for (const auto &base : studyModels())
        for (unsigned k : mshrs)
            grid.add(base.withMshrs(k).withName(
                         base.name + "/mshr=" + std::to_string(k)),
                     suite);

    Table t({"Model", "MSHRs", "Cost (RBE)", "CPI min", "CPI avg",
             "CPI max", "occ p95", "occ max"});
    for (const auto &res : grid.run()) {
        const auto &m = res.machine;
        const auto acc = res.cpiStats();
        // Worst-case occupancy over the suite: how much of the
        // provisioned MSHR file the workloads actually use.
        Count occ_p95 = 0;
        Count occ_max = 0;
        for (const auto &r : res.runs) {
            occ_p95 = std::max(occ_p95, r.mshr_occupancy.p95);
            occ_max = std::max(occ_max, r.mshr_occupancy.max);
        }
        t.row()
            .cell(m.name)
            .cell(std::uint64_t{m.lsu.mshr_entries})
            .cell(m.rbeCost(), 0)
            .cell(acc.min(), 3)
            .cell(acc.mean(), 3)
            .cell(acc.max(), 3)
            .cell(occ_p95)
            .cell(occ_max);
    }
    t.print(std::cout, "Figure 7 data (dual issue, 17-cycle latency)");
    std::cout
        << "(paper: small gains dramatically with added MSHRs, base "
           "slightly; large loses when reduced below 4; all models "
           "peak by 4 MSHRs; the occupancy tail shows when extra "
           "MSHRs go unused)\n";
    grid.footer();
    return 0;
}
