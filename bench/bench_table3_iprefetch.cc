/**
 * @file
 * Table 3: integer instruction-stream prefetch buffer hit rates, per
 * benchmark and machine model.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("Table 3 - integer I-stream prefetch hit rate %");

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
            row.cell(r.iprefetch_hit_pct, 2);
            avg.add(r.iprefetch_hit_pct);
        }
        row.cell(avg.mean(), 2);
    }
    t.print(std::cout, "Table 3: Integer I Prefetch Hit Rate %");
    std::cout << "(paper baseline row: espresso 61.02, li 45.33, "
                 "eqntott 88.34, compress 53.13, sc 49.01, gcc 57.75; "
                 "suite average ~58%)\n";
    grid.footer();
    return 0;
}
