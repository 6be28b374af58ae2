/**
 * @file
 * Table 6: CPI figures for the three FPU issue policies over the
 * SPECfp92 suite (§5.8).
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("Table 6 - FPU issue policies");

    const auto suite = tr::floatSuite();
    bench::Grid grid;
    for (auto pol : {fpu::IssuePolicy::InOrderComplete,
                     fpu::IssuePolicy::OutOfOrderSingle,
                     fpu::IssuePolicy::OutOfOrderDual}) {
        auto m = baselineModel();
        m.fpu.policy = pol;
        grid.add(m, suite);
    }
    const auto &policies = grid.run();

    Table t({"Benchmark", "In Order Issue and Completion",
             "Single Issue", "Dual Issue"});
    Accumulator a0, a1, a2;
    for (std::size_t b = 0; b < suite.size(); ++b) {
        double cpi[3];
        for (int i = 0; i < 3; ++i)
            cpi[i] = policies[i].runs[b].cpi();
        a0.add(cpi[0]);
        a1.add(cpi[1]);
        a2.add(cpi[2]);
        t.row()
            .cell(suite[b].name)
            .cell(cpi[0], 3)
            .cell(cpi[1], 3)
            .cell(cpi[2], 3);
    }
    t.row()
        .cell("Average")
        .cell(a0.mean(), 3)
        .cell(a1.mean(), 3)
        .cell(a2.mean(), 3);
    t.print(std::cout, "Table 6: CPI for Three FPU Issue Policies");

    std::cout << "single-issue gain over in-order: "
              << formatFixed(100.0 * (a0.mean() - a1.mean()) /
                                 a0.mean(),
                             1)
              << "%  (paper: 12%)\n"
              << "dual-issue gain over in-order:   "
              << formatFixed(100.0 * (a0.mean() - a2.mean()) /
                                 a0.mean(),
                             1)
              << "%  (paper: 21%)\n"
              << "(paper averages: 1.577 / 1.4012 / 1.248; alvinn and "
                 "spice2g6 are insensitive, nasa7/hydro2d/mdljdp2 "
                 "gain the most)\n";
    grid.footer();
    return 0;
}
