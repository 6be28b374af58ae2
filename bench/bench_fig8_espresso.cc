/**
 * @file
 * Figure 8: the full cost-performance scatter for espresso at
 * 17-cycle latency. Four classes of systems are swept: single-issue
 * systems of the three cache sizes, and dual-issue systems with 1K,
 * 2K and 4K instruction caches crossed with write-cache / reorder
 * buffer / MSHR / prefetch variations. The lettered points of §5.6
 * (A: single-MSHR outliers, B: large-model plateau, C/D: prefetch
 * on/off, E: the recommended machine) are tagged in the output.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;

    bench::banner("Figure 8 - espresso full cost-performance scatter");

    // Every scatter point, with its §5.6 letter (empty = untagged).
    std::vector<std::pair<MachineConfig, std::string>> points;

    // Squares: single issue systems of the three cache sizes.
    for (const auto &base : studyModels())
        points.emplace_back(
            base.withIssueWidth(1).withName(base.name + "-1"), "sq");

    // Diamonds / triangles / circles: dual issue with 1K/2K/4K
    // I-caches and a spread of memory resources.
    for (const auto &base : studyModels()) {
        // the standard point
        points.emplace_back(base, "");
        // A: blocking cache (single MSHR)
        points.emplace_back(base.withMshrs(1).withName(base.name + "-A"),
                            "A");
        // D/C: prefetch present vs removed
        points.emplace_back(
            base.withPrefetch(false).withName(base.name + "-C"), "C");
        // richer memory resources at the same cache size
        auto rich = base;
        rich.write_cache.lines = 8;
        rich.rob_entries = 8;
        rich.lsu.mshr_entries = 4;
        points.emplace_back(rich.withName(base.name + "-rich"), "");
        // poorer
        auto poor = base;
        poor.write_cache.lines = 2;
        poor.rob_entries = 2;
        points.emplace_back(poor.withName(base.name + "-poor"), "");
    }

    // B: the large-model plateau (extra resources, little gain).
    auto plateau = largeModel();
    plateau.write_cache.lines = 16;
    plateau.rob_entries = 16;
    plateau.lsu.mshr_entries = 8;
    plateau.prefetch.num_buffers = 16;
    points.emplace_back(plateau.withName("large-B"), "B");

    // E: the recommendation — baseline + 4K I-cache + 4 MSHRs.
    points.emplace_back(recommendedModel(), "E");

    bench::Grid grid;
    for (const auto &point : points)
        grid.add(point.first, {trace::espresso()});
    const auto &suites = grid.run();

    Table t({"point", "issue", "I$KB", "WC", "ROB", "MSHR", "PF",
             "Cost (RBE)", "CPI"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &[m, tag] = points[i];
        t.row()
            .cell(tag.empty() ? m.name : tag + " " + m.name)
            .cell(std::uint64_t{m.issue_width})
            .cell(std::uint64_t{m.ifu.icache_bytes / 1024})
            .cell(std::uint64_t{m.write_cache.lines})
            .cell(std::uint64_t{m.rob_entries})
            .cell(std::uint64_t{m.lsu.mshr_entries})
            .cell(m.prefetch.enabled ? "y" : "n")
            .cell(m.rbeCost(), 0)
            .cell(suites[i].runs.front().cpi(), 3);
    }
    t.print(std::cout, "Figure 8 data (espresso, 17-cycle latency)");
    std::cout
        << "(paper: A-points lie well above equal-cost systems; "
           "B-points plateau; C->D shows the prefetch gain; E nearly "
           "matches the large model at much lower cost)\n";
    grid.footer();
    return 0;
}
