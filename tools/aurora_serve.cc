/**
 * @file
 * aurora_serve — the resident multi-tenant sweep daemon.
 *
 * Usage:
 *   aurora_serve --socket PATH --spool DIR [options]
 *
 * Options:
 *   --socket PATH       Unix-domain socket to listen on (required)
 *   --spool DIR         durable spool directory (required); every
 *                       accepted grid's manifest + journal lives here
 *                       and is resumed on restart
 *   --workers N         worker threads (default AURORA_JOBS / cores)
 *   --quota-grids N     resident grids per tenant (default 8)
 *   --quota-jobs N      queued+running jobs per tenant (default 4096)
 *   --queue-depth N     global queued+running job cap (default 16384)
 *   --grid-jobs N       max jobs in one submission (default 2048)
 *   --progress-every N  heartbeat cadence in jobs (default: grid/4)
 *   --shards N          horizontal-scale backend: deal each grid to
 *                       N aurora_shardd processes under lease-fenced
 *                       supervision instead of in-process workers
 *   --shardd PATH       aurora_shardd binary (required with --shards)
 *   --quiet             suppress lifecycle log lines
 *
 * Lifecycle: runs until SIGTERM/SIGINT, then drains — running jobs
 * finish and are journaled, queued jobs stay persisted in the spool,
 * new submissions are refused with AUR204 — and exits 0. SIGKILL is
 * also survivable: the next incarnation rescans the spool, replays
 * journaled outcomes bit-exactly, and re-queues the missing jobs
 * (clients re-attach by fingerprint). See docs/service.md.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "serve/server.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: aurora_serve --socket PATH --spool DIR\n"
        << "                    [--workers N] [--quota-grids N]\n"
        << "                    [--quota-jobs N] [--queue-depth N]\n"
        << "                    [--grid-jobs N] [--progress-every N]\n"
        << "                    [--shards N --shardd PATH] [--quiet]\n";
    std::exit(2);
}

std::size_t
numericOption(const std::string &option, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        util::raiseError(util::SimErrorCode::BadConfig, "option ",
                         option, ": bad numeric value '", value, "'");
    return static_cast<std::size_t>(parsed);
}

int
run(int argc, char **argv)
{
    serve::ServerConfig config;
    config.verbose = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            config.socket_path = argv[++i];
        } else if (arg == "--spool" && i + 1 < argc) {
            config.spool_dir = argv[++i];
        } else if (arg == "--workers" && i + 1 < argc) {
            config.workers =
                static_cast<unsigned>(numericOption(arg, argv[++i]));
        } else if (arg == "--quota-grids" && i + 1 < argc) {
            config.limits.grids_per_tenant =
                numericOption(arg, argv[++i]);
        } else if (arg == "--quota-jobs" && i + 1 < argc) {
            config.limits.jobs_per_tenant =
                numericOption(arg, argv[++i]);
        } else if (arg == "--queue-depth" && i + 1 < argc) {
            config.limits.total_jobs = numericOption(arg, argv[++i]);
        } else if (arg == "--grid-jobs" && i + 1 < argc) {
            config.limits.jobs_per_grid =
                numericOption(arg, argv[++i]);
        } else if (arg == "--progress-every" && i + 1 < argc) {
            config.progress_every = numericOption(arg, argv[++i]);
        } else if (arg == "--shards" && i + 1 < argc) {
            config.shards =
                static_cast<unsigned>(numericOption(arg, argv[++i]));
        } else if (arg == "--shardd" && i + 1 < argc) {
            config.shardd_path = argv[++i];
        } else if (arg == "--quiet") {
            config.verbose = false;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage();
        }
    }
    if (config.socket_path.empty() || config.spool_dir.empty())
        usage();

    serve::Server server(std::move(config));
    server.installSignalHandlers();
    server.run();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const util::SimError &e) {
        std::cerr << "aurora_serve: " << e.what() << "\n";
        return 1;
    }
}
