/**
 * @file
 * Extension: CPI as a function of secondary memory latency.
 *
 * The paper's introduction motivates the whole study with the growing
 * processor/memory speed gap ("primary cache miss penalties will rise
 * ... to as many as 100 clock cycles"); §5 samples only 17 and 35
 * cycles. This bench sweeps the latency axis for the three models and
 * for single vs. dual issue, showing where the second pipeline stops
 * paying for itself. The 8-latency × 4-config grid is one sweep batch.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;
    namespace tr = aurora::trace;

    bench::banner("extension - secondary latency sweep");

    const auto suite = tr::integerSuite();
    const Cycle lats[] = {5, 10, 17, 25, 35, 50, 70, 100};

    // Per latency: small, baseline, large, baseline single-issue.
    bench::Grid grid;
    for (Cycle lat : lats) {
        grid.add(smallModel().withLatency(lat), suite);
        grid.add(baselineModel().withLatency(lat), suite);
        grid.add(largeModel().withLatency(lat), suite);
        grid.add(baselineModel().withLatency(lat).withIssueWidth(1), suite);
    }
    const auto &suites = grid.run();
    const auto cpi = [&](std::size_t i) { return suites[i].avgCpi(); };

    Table t({"latency", "small", "baseline", "large",
             "baseline x1", "dual gain %"});
    for (std::size_t li = 0; li < std::size(lats); ++li) {
        const double s = cpi(4 * li);
        const double b = cpi(4 * li + 1);
        const double l = cpi(4 * li + 2);
        const double b1 = cpi(4 * li + 3);
        t.row()
            .cell(std::uint64_t{lats[li]})
            .cell(s, 3)
            .cell(b, 3)
            .cell(l, 3)
            .cell(b1, 3)
            .cell(100.0 * (b1 - b) / b1, 1);
    }
    t.print(std::cout, "CPI vs secondary latency (dual issue unless "
                       "noted)");
    std::cout << "(expected: the dual-issue gain column shrinks as "
                 "latency grows — the paper's conclusion that long "
                 "latencies reduce the benefit of superscalar "
                 "issue)\n";
    grid.footer();
    return 0;
}
