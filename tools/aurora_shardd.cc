/**
 * @file
 * aurora_shardd — one shard worker process of a distributed sweep.
 *
 *   aurora_shardd --socket PATH --journal-dir DIR
 *                 [--connect-timeout-ms N] [--flight-dir DIR]
 *
 * Dials the aurora_swarm coordinator at PATH, receives a lease, and
 * executes assigned jobs until Shutdown or Fenced (see
 * docs/distributed.md). The process is deliberately argument-poor:
 * everything about *what* to run arrives over the wire.
 *
 * Fault injection (chaos drills): when AURORA_SHARD_FAULT is set to a
 * faultinject::formatShardFaultPlan() string ("kill-shard:2", ...),
 * the worker sabotages itself at the scripted point. A malformed plan
 * is fatal — a drill must never silently run the wrong sabotage.
 */

#include <iostream>
#include <string>

#include "faultinject/faultinject.hh"
#include "shard/shardd.hh"
#include "util/env.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;

[[noreturn]] void
usage()
{
    std::cerr << "usage: aurora_shardd --socket PATH "
                 "--journal-dir DIR\n"
                 "                     [--connect-timeout-ms N] "
                 "[--flight-dir DIR]\n";
    std::exit(2);
}

int
run(int argc, char **argv)
{
    shard::ShardWorkerConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            config.socket_path = argv[++i];
        } else if (arg == "--journal-dir" && i + 1 < argc) {
            config.journal_dir = argv[++i];
        } else if (arg == "--connect-timeout-ms" && i + 1 < argc) {
            config.connect_timeout_ms = countOption(arg, argv[++i]);
        } else if (arg == "--flight-dir" && i + 1 < argc) {
            config.flight_dir = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage();
        }
    }
    if (config.socket_path.empty() || config.journal_dir.empty())
        usage();

    if (const auto plan = envString(shard::SHARD_FAULT_ENV)) {
        config.fault = faultinject::parseShardFaultPlan(*plan);
        if (!config.fault) {
            std::cerr << "aurora_shardd: malformed "
                      << shard::SHARD_FAULT_ENV << " '" << *plan
                      << "' (expected <fault-name>:<after-jobs>)\n";
            return 2;
        }
    }

    return shard::runShardWorker(config);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const util::SimError &e) {
        std::cerr << "aurora_shardd: " << e.what() << "\n";
        return shard::SHARD_EXIT_ERROR;
    }
}
