/**
 * @file
 * Extension: primary cache size sweeps.
 *
 * §5.1 validates the base model's hit rates against Gee et al.'s
 * SPEC92 cache study [5]. This bench sweeps the on-chip I-cache
 * (512 B - 16 KB) and the external D-cache (8 - 256 KB) and prints
 * the hit-rate and CPI curves, showing the knee the Table 1 models
 * straddle. Both size axes run through one sweep batch.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("extension - cache size sweeps");

    const auto suite = tr::integerSuite();

    bench::Grid grid;
    std::vector<bench::Grid::Handle> ic_slices;
    for (std::uint32_t size = 512; size <= 16 * 1024; size *= 2) {
        auto m = baselineModel();
        m.ifu.icache_bytes = size;
        ic_slices.push_back(grid.add(m, suite));
    }
    std::vector<bench::Grid::Handle> dc_slices;
    for (std::uint32_t size = 8 * 1024; size <= 256 * 1024;
         size *= 2) {
        auto m = baselineModel();
        m.lsu.dcache_bytes = size;
        dc_slices.push_back(grid.add(m, suite));
    }

    const auto &suites = grid.run();

    Table ic({"I-cache", "hit %", "CPI avg", "RBE cost"});
    for (const auto h : ic_slices) {
        const auto &res = suites[h];
        const std::uint32_t size = res.machine.ifu.icache_bytes;
        Accumulator hit;
        for (const auto &r : res.runs)
            hit.add(r.icache_hit_pct);
        ic.row()
            .cell(std::to_string(size / 1024) + "." +
                  std::to_string((size % 1024) * 10 / 1024) + " KB")
            .cell(hit.mean(), 2)
            .cell(res.avgCpi(), 3)
            .cell(res.machine.rbeCost(), 0);
    }
    ic.print(std::cout, "on-chip instruction cache sweep");

    Table dc({"D-cache", "hit %", "CPI avg"});
    for (const auto h : dc_slices) {
        const auto &res = suites[h];
        Accumulator hit;
        for (const auto &r : res.runs)
            hit.add(r.dcache_hit_pct);
        dc.row()
            .cell(std::to_string(res.machine.lsu.dcache_bytes / 1024) +
                  " KB")
            .cell(hit.mean(), 2)
            .cell(res.avgCpi(), 3);
    }
    dc.print(std::cout,
             "external data cache sweep (not priced: off-chip SRAM)");
    std::cout << "(paper: base model I-cache hit 96.5% at 2 KB, "
                 "D-cache 95.4% at 32 KB, in agreement with Gee et "
                 "al. [5])\n";
    grid.footer();
    return 0;
}
