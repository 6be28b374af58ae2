/**
 * @file
 * aurora_swarm — distributed sweep coordinator CLI.
 *
 *   aurora_swarm --socket PATH --journal-dir DIR [--shards N]
 *                [--spawn fork|exec] [--shardd PATH]
 *                [--bench NAME|int|fp|all] [--insts N] [--csv]
 *                [--seed N] [--lease-ms N]
 *                [--journal FILE] [--resume] [--retries N]
 *                [--deadline-ms N] [--backoff-ms N]
 *                [--fault SLOT:NAME:AFTER] [--verbose] [--stats]
 *                [--trace-out FILE] [--flight-dir DIR]
 *                [key=value ...]
 *
 * Runs the same (machine × suite) grids as `aurora_sim --bench X`,
 * but partitioned across N shard worker processes under lease-fenced
 * supervision (docs/distributed.md). The merged output is
 * bit-identical to the serial run — `aurora_swarm --bench int --csv`
 * and `aurora_sim --bench int --csv` must diff clean even when shards
 * are SIGKILLed mid-grid, which is exactly what
 * `scripts/check.sh shard` does.
 *
 * Spawn modes: `fork` (default) forks in-process workers; `exec`
 * launches the aurora_shardd binary named by --shardd, so every
 * worker is a real process the caller can find (`pgrep -P`) and
 * SIGKILL — the chaos-drill shape.
 *
 * --fault scripts sabotage into a spawned slot, e.g.
 * `--fault 1:kill-shard:2` SIGKILL-shapes slot 1's initial worker
 * after two Results (see `aurora_lint explain AUR302`).
 *
 * --trace-out mints a causal trace id for the grid and writes the
 * merged Chrome trace — coordinator lease/dispatch/merge spans plus
 * every shard's attempt spans, all parented under one grid root — to
 * FILE (validate with `aurora_obs_check trace`). --flight-dir names
 * the directory for the crash-durable flight recorders (the
 * coordinator's swarm.flight and each incarnation's
 * shard-e<epoch>.flight/.spans); it defaults to
 * <journal-dir>/obs when --trace-out is given.
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "core/report.hh"
#include "core/simulator.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "shard/swarm.hh"
#include "trace/spec_profiles.hh"
#include "util/env.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: aurora_swarm --socket PATH --journal-dir DIR\n"
        << "                    [--shards N] [--spawn fork|exec]\n"
        << "                    [--shardd PATH] [--bench NAME|int|fp|"
           "all]\n"
        << "                    [--insts N] [--csv] [--seed N]\n"
        << "                    [--lease-ms N]\n"
        << "                    [--journal FILE] [--resume]\n"
        << "                    [--retries N] [--deadline-ms N]\n"
        << "                    [--backoff-ms N]\n"
        << "                    [--fault SLOT:NAME:AFTER] [--verbose]\n"
        << "                    [--stats] [--trace-out FILE]\n"
        << "                    [--flight-dir DIR] [key=value ...]\n";
    std::exit(2);
}

int
run(int argc, char **argv)
{
    shard::SwarmConfig config;
    shard::GridOptions grid_options;
    std::string bench = "int";
    Count insts = 400'000;
    bool csv = false;
    bool stats = false;
    std::string trace_out;
    std::string spec;
    std::vector<std::pair<std::uint32_t, faultinject::ShardFaultPlan>>
        faults;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            config.socket_path = argv[++i];
        } else if (arg == "--journal-dir" && i + 1 < argc) {
            config.journal_dir = argv[++i];
        } else if (arg == "--shards" && i + 1 < argc) {
            config.shards = countOption<std::uint32_t>(arg, argv[++i]);
        } else if (arg == "--spawn" && i + 1 < argc) {
            const std::string mode = argv[++i];
            if (mode == "fork")
                config.spawn = shard::SpawnMode::Fork;
            else if (mode == "exec")
                config.spawn = shard::SpawnMode::Exec;
            else
                util::raiseError(util::SimErrorCode::BadConfig,
                                 "--spawn: unknown mode '", mode,
                                 "' (accepted: fork, exec)");
        } else if (arg == "--shardd" && i + 1 < argc) {
            config.shardd_path = argv[++i];
        } else if (arg == "--bench" && i + 1 < argc) {
            bench = argv[++i];
        } else if (arg == "--insts" && i + 1 < argc) {
            insts = countOption(arg, argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            grid_options.base_seed = countOption(arg, argv[++i]);
        } else if (arg == "--lease-ms" && i + 1 < argc) {
            config.lease_ms = countOption(arg, argv[++i]);
        } else if (arg == "--journal" && i + 1 < argc) {
            grid_options.journal = argv[++i];
        } else if (arg == "--resume") {
            grid_options.resume = true;
        } else if (arg == "--retries" && i + 1 < argc) {
            grid_options.retries =
                countOption<std::uint32_t>(arg, argv[++i]);
        } else if (arg == "--deadline-ms" && i + 1 < argc) {
            grid_options.deadline_ms = countOption(arg, argv[++i]);
        } else if (arg == "--backoff-ms" && i + 1 < argc) {
            grid_options.backoff_ms = countOption(arg, argv[++i]);
        } else if (arg == "--fault" && i + 1 < argc) {
            const std::string value = argv[++i];
            const std::size_t colon = value.find(':');
            if (colon == std::string::npos)
                util::raiseError(util::SimErrorCode::BadConfig,
                                 "--fault: expected "
                                 "SLOT:NAME:AFTER, got '",
                                 value, "'");
            const auto slot =
                countOption<std::uint32_t>(arg, value.substr(0, colon));
            const auto plan = faultinject::parseShardFaultPlan(
                value.substr(colon + 1));
            if (!plan)
                util::raiseError(util::SimErrorCode::BadConfig,
                                 "--fault: malformed plan '",
                                 value.substr(colon + 1),
                                 "' (expected <fault-name>:<after-"
                                 "jobs>)");
            faults.emplace_back(slot, *plan);
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--flight-dir" && i + 1 < argc) {
            config.flight_dir = argv[++i];
        } else if (arg == "--verbose") {
            config.verbose = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else if (arg.find('=') != std::string::npos) {
            spec += arg + " ";
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage();
        }
    }
    if (config.socket_path.empty() || config.journal_dir.empty())
        usage();

    config.fault_plans.resize(config.shards);
    for (const auto &[slot, plan] : faults) {
        if (slot >= config.shards)
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--fault: slot ", slot,
                             " out of range (", config.shards,
                             " shards)");
        config.fault_plans[slot] = plan;
    }

    const MachineConfig machine = parseMachineSpec(spec);
    std::vector<trace::WorkloadProfile> suite;
    if (bench == "int") {
        suite = trace::integerSuite();
    } else if (bench == "fp") {
        suite = trace::floatSuite();
    } else if (bench == "all") {
        suite = trace::integerSuite();
        const auto fp = trace::floatSuite();
        suite.insert(suite.end(), fp.begin(), fp.end());
    } else {
        suite.push_back(trace::profileByName(bench));
    }

    const std::vector<harness::SweepJob> jobs =
        harness::suiteJobs(machine, suite, insts);

    obs::SpanLog span_log;
    if (!trace_out.empty()) {
        // Shard span files land in the flight dir; without one the
        // trace would hold only the coordinator's half.
        if (config.flight_dir.empty())
            config.flight_dir = config.journal_dir + "/obs";
        grid_options.trace_id = obs::traceIdForGrid(
            harness::gridFingerprint(jobs, grid_options.base_seed));
        grid_options.span_log = &span_log;
    }

    shard::Swarm swarm(config);
    const std::vector<harness::SweepOutcome> outcomes =
        swarm.runGrid(jobs, grid_options);

    if (!trace_out.empty()) {
        // This CLI minted the trace, so it owns the grid root: one
        // span covering everything the fabric recorded.
        std::ofstream os(trace_out, std::ios::binary);
        if (!os)
            util::raiseError(util::SimErrorCode::BadTrace,
                             "cannot open --trace-out file '",
                             trace_out, "'");
        obs::writeGridTrace(os, span_log.spans(), grid_options.trace_id,
                            "grid " + obs::hexId(grid_options.trace_id),
                            /*pid=*/1, span_log.nowUs(), "aurora_swarm");
    }

    SuiteResult res;
    res.machine = machine;
    bool any_failed = false;
    for (const harness::SweepOutcome &out : outcomes) {
        if (out.ok) {
            res.runs.push_back(out.result);
        } else {
            any_failed = true;
            std::cerr << "aurora_swarm: job failed ("
                      << util::errorCodeName(out.code)
                      << "): " << out.error << "\n";
        }
    }
    if (stats) {
        const shard::SwarmStats &s = swarm.stats();
        std::cerr << "swarm stats: leases=" << s.granted_leases
                  << " expiries=" << s.lease_expiries
                  << " exits=" << s.shard_exits
                  << " fenced_results=" << s.fenced_results
                  << " protocol_errors=" << s.protocol_errors
                  << " migrated=" << s.migrated_jobs
                  << " respawns=" << s.respawns
                  << " committed=" << s.committed
                  << " resumed=" << s.resumed << "\n";
    }
    if (any_failed)
        return 1;

    if (csv) {
        std::cout << suiteTable(res).csv();
    } else {
        suiteTable(res).print(std::cout,
                              "machine: " + describe(machine));
        stallTable(res).print(std::cout, "stall breakdown (CPI)");
        std::cout << "suite average CPI: "
                  << formatFixed(res.avgCpi(), 3) << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const util::SimError &e) {
        std::cerr << "aurora_swarm: " << e.what() << "\n";
        return 1;
    }
}
