/**
 * @file
 * Table 4: integer data-stream prefetch buffer hit rates, per
 * benchmark and machine model.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("Table 4 - integer D-stream prefetch hit rate %");

    const auto suite = tr::integerSuite();
    std::vector<std::string> headers = {"model"};
    for (const auto &p : suite)
        headers.push_back(p.name);
    headers.push_back("average");

    bench::Grid grid;
    for (const auto &m : studyModels())
        grid.add(m, suite);

    Table t(headers);
    for (const auto &res : grid.run()) {
        auto &row = t.row().cell(res.machine.name);
        Accumulator avg;
        for (const auto &r : res.runs) {
            row.cell(r.dprefetch_hit_pct, 2);
            avg.add(r.dprefetch_hit_pct);
        }
        row.cell(avg.mean(), 2);
    }
    t.print(std::cout, "Table 4: Integer D Prefetch Hit Rate %");
    std::cout << "(paper baseline row: espresso 8.95, li 14.41, "
                 "eqntott 2.29, compress 13.13, sc 27.42, gcc 8.63; "
                 "suite average ~12%)\n";
    grid.footer();
    return 0;
}
