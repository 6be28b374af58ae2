/**
 * @file
 * Building a custom workload: the WorkloadProfile API end to end.
 *
 * Models a hypothetical database-like engine — large code footprint,
 * pointer-heavy index walks, a sequential log writer — then asks
 * the study's question for it: which Table 1 machine should run it,
 * and is a second pipeline worth 8192 RBE?
 */

#include <iostream>

#include "core/report.hh"
#include "core/simulator.hh"
#include "trace/trace_stats.hh"
#include "trace/synthetic_workload.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;

    // 1. Describe the program's structure.
    trace::WorkloadProfile db;
    db.name = "dbengine";
    db.seed = 0xdb01;
    db.frac_load = 0.27;          // index probes dominate
    db.frac_store = 0.09;         // log + page updates
    db.hot_code_bytes = 5 * 1024; // big operator kernels
    db.cold_code_bytes = 256 * 1024;
    db.num_hot_loops = 14;
    db.mean_trips = 8.0;          // short per-row loops
    db.hot_fraction = 0.75;       // lots of cold path (parser, ...)
    db.total_data_bytes = 8 * 1024 * 1024; // buffer pool
    db.chase_fraction = 0.55;     // B-tree descent
    db.chase_hot_frac = 0.90;     // hot index upper levels
    db.seq_fraction = 0.20;       // scans + log
    db.stack_fraction = 0.25;
    db.store_burst_frac = 0.50;   // log records are sequential
    db.load_use_frac = 0.60;      // pointer chains use loads at once

    // 2. Sanity-check the stream we built.
    {
        trace::SyntheticWorkload w(db);
        const auto stats = trace::analyze(w, 100'000);
        std::cout << "workload check:\n" << stats.summary() << "\n";
    }

    // 3. Ask the resource-allocation question for this workload.
    std::vector<SuiteResult> rows;
    for (const auto &m : studyModels())
        rows.push_back({m, {simulate(m, db, 300'000)}});
    comparisonTable(rows).print(std::cout,
                                "dbengine across the Table 1 models");

    // 4. Is dual issue worth it here?
    const double dual =
        simulate(baselineModel(), db, 300'000).cpi();
    const double single =
        simulate(baselineModel().withIssueWidth(1), db, 300'000)
            .cpi();
    std::cout << "dual issue buys "
              << formatFixed(100.0 * (single - dual) / single, 1)
              << "% on dbengine for 8192 RBE ("
              << formatFixed(
                     100.0 * 8192.0 /
                         baselineModel().withIssueWidth(1).rbeCost(),
                     1)
              << "% more area)\n"
              << "(pointer-chasing workloads are exactly where the "
                 "paper warns superscalar issue pays least)\n";
    return 0;
}
