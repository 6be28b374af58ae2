/**
 * @file
 * Design-space exploration: the resource-allocation question the
 * paper asks, as a library client. Sweeps I-cache size, write cache,
 * reorder buffer, MSHRs and issue width, prices each configuration
 * with the RBE model, and prints the Pareto frontier of (cost, CPI)
 * over the integer suite — i.e. which machines are worth building.
 * The whole (configuration × benchmark) grid runs as one sweep, so
 * each benchmark trace is synthesized once for every machine.
 *
 *   ./design_space_explorer [instructions-per-run]
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "core/simulator.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace aurora;
    using namespace aurora::core;

    const Count insts =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 120'000;
    const auto suite = trace::integerSuite();

    struct Point
    {
        MachineConfig config;
        double cost = 0.0;
        double cpi = 0.0;
    };
    std::vector<Point> points;
    std::vector<harness::SweepJob> grid;
    const auto queue = [&](const MachineConfig &m) {
        for (auto &job : harness::suiteJobs(m, suite, insts))
            grid.push_back(std::move(job));
    };

    // Cross the headline resources; derive everything else from the
    // baseline so the sweep isolates the structures under study.
    for (std::uint32_t icache : {1024u, 2048u, 4096u}) {
        for (unsigned wc : {2u, 4u, 8u}) {
            for (unsigned rob : {2u, 6u, 8u}) {
                for (unsigned mshr : {1u, 2u, 4u}) {
                    for (unsigned width : {1u, 2u}) {
                        auto m = baselineModel().withIssueWidth(width);
                        m.ifu.icache_bytes = icache;
                        m.write_cache.lines = wc;
                        m.rob_entries = rob;
                        m.lsu.mshr_entries = mshr;
                        m.name = std::to_string(icache / 1024) +
                                 "K/wc" + std::to_string(wc) + "/rob" +
                                 std::to_string(rob) + "/mshr" +
                                 std::to_string(mshr) + "/x" +
                                 std::to_string(width);
                        points.push_back({m, m.rbeCost()});
                        queue(m);
                    }
                }
            }
        }
    }

    // The paper's named models ride along as reference points.
    const std::vector<MachineConfig> references = {
        smallModel(), baselineModel(), largeModel(), recommendedModel()};
    for (const auto &m : references)
        queue(m);

    // Suite-average CPI of the i-th queued configuration.
    const auto results = harness::SweepRunner().run(grid);
    const auto cpi = [&](std::size_t i) {
        Accumulator acc;
        for (std::size_t b = 0; b < suite.size(); ++b)
            acc.add(results[i * suite.size() + b].cpi());
        return acc.mean();
    };
    for (std::size_t i = 0; i < points.size(); ++i)
        points[i].cpi = cpi(i);

    // Pareto frontier: keep points no other point dominates.
    std::sort(points.begin(), points.end(),
              [](const Point &a, const Point &b) {
                  return a.cost < b.cost;
              });
    std::vector<const Point *> frontier;
    double best_cpi = 1e9;
    for (const Point &p : points) {
        if (p.cpi < best_cpi) {
            best_cpi = p.cpi;
            frontier.push_back(&p);
        }
    }

    Table t({"configuration", "cost (RBE)", "CPI avg"});
    for (const Point *p : frontier)
        t.row().cell(p->config.name).cell(p->cost, 0).cell(p->cpi, 3);
    t.print(std::cout,
            "Pareto-efficient machines (" +
                std::to_string(points.size()) +
                " configurations explored)");

    // How do the paper's named models fare against the frontier?
    std::cout << "Reference points:\n";
    for (std::size_t r = 0; r < references.size(); ++r) {
        const auto &m = references[r];
        std::cout << "  " << m.name << ": cost "
                  << formatFixed(m.rbeCost(), 0) << " RBE, CPI "
                  << formatFixed(cpi(points.size() + r), 3) << "\n";
    }
    return 0;
}
