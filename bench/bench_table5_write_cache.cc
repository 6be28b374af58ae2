/**
 * @file
 * Table 5: integer write cache hit rate percentages, plus the §5.5
 * store traffic reduction figures (BIU store transactions as a
 * percentage of store instructions).
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("Table 5 - write cache hit rate %");

    const auto suite = tr::integerSuite();
    std::vector<std::string> headers = {"model"};
    for (const auto &p : suite)
        headers.push_back(p.name);
    headers.push_back("average");

    bench::Grid grid;
    for (const auto &m : studyModels())
        grid.add(m, suite);

    Table hit(headers);
    Table traffic(headers);
    for (const auto &res : grid.run()) {
        auto &hrow = hit.row().cell(res.machine.name);
        auto &trow = traffic.row().cell(res.machine.name);
        Accumulator havg, tavg;
        for (const auto &r : res.runs) {
            hrow.cell(r.write_cache_hit_pct, 2);
            havg.add(r.write_cache_hit_pct);
            trow.cell(r.storeTrafficPct(), 1);
            tavg.add(r.storeTrafficPct());
        }
        hrow.cell(havg.mean(), 2);
        trow.cell(tavg.mean(), 1);
    }
    hit.print(std::cout,
              "Table 5: Integer Write Cache Hit Rate % "
              "(loads + stores)");
    std::cout << "(paper baseline row: espresso 37.17, li 49.17, "
                 "eqntott 48.34, compress 46.29, sc 52.53, "
                 "gcc 54.93)\n\n";
    traffic.print(std::cout,
                  "S5.5: BIU store transactions as % of store "
                  "instructions");
    std::cout << "(paper: ~44% small, ~30% baseline, ~22% large)\n";
    grid.footer();
    return 0;
}
