/**
 * @file
 * Shard worker: one process's share of a distributed sweep.
 *
 * A shard worker dials the coordinator's Unix socket, receives a
 * slot + lease epoch (Welcome), and then loops: pull assigned jobs,
 * execute each through harness::runJob() (the one-job runner
 * aurora_serve uses too, so results are bit-identical to both the
 * daemon and a serial run), append the outcome to its
 * per-epoch local journal, *then* offer it to the coordinator
 * (durable-before-visible), heartbeating between jobs to renew its
 * lease.
 *
 * The worker is deliberately trusting and dumb: all placement,
 * migration, fencing, and exactly-once logic lives in the
 * coordinator. On Fenced it exits — its epoch is dead, and any work
 * it still holds has already been handed to a live shard. On
 * Shutdown it exits cleanly.
 *
 * Fault plans (faultinject::ShardFaultPlan) script the four failure
 * modes the supervision layer must absorb — crash, wedge, silent
 * partition, and post-fence zombie append — at a deterministic point
 * in the job stream. Exec'd workers read the plan from the
 * AURORA_SHARD_FAULT environment variable; in-process workers get it
 * in the config.
 */

#ifndef AURORA_SHARD_SHARDD_HH
#define AURORA_SHARD_SHARDD_HH

#include <cstdint>
#include <optional>
#include <string>

#include "faultinject/faultinject.hh"

namespace aurora::shard
{

/** Environment variable carrying a formatShardFaultPlan() string to
 *  an exec'd `aurora_shardd` (parse failures are fatal — a shard
 *  must never misread sabotage orders into different sabotage). */
inline constexpr const char *SHARD_FAULT_ENV = "AURORA_SHARD_FAULT";

/** Exit codes a shard worker reports (asserted by drills). */
enum : int
{
    SHARD_EXIT_OK = 0,      ///< Shutdown received; grid done
    SHARD_EXIT_FENCED = 2,  ///< lease revoked; exited on Fenced
    SHARD_EXIT_ERROR = 3,   ///< connect/protocol/journal failure
    SHARD_EXIT_KILLED = 137 ///< KillShard fault (mimics SIGKILL)
};

struct ShardWorkerConfig
{
    /** Coordinator's listen socket. */
    std::string socket_path;
    /** Directory for per-epoch local journals (must be shared with
     *  the coordinator — see shardJournalPath()). */
    std::string journal_dir;
    /** Keep retrying the initial connect for this long (external
     *  drills may start workers before the coordinator listens). */
    std::uint64_t connect_timeout_ms = 5000;
    /** Scripted failure, if any. */
    std::optional<faultinject::ShardFaultPlan> fault;
    /**
     * Observability directory (normally the coordinator's): when
     * non-empty this incarnation writes `shard-e<epoch>.flight`
     * (write-through flight recorder — survives SIGKILL) and
     * `shard-e<epoch>.spans` (crash-durable attempt spans the
     * coordinator folds into the grid trace) there.
     */
    std::string flight_dir;
};

/** Journal path convention shared by worker and coordinator: one
 *  file per granted epoch under the common journal directory. */
std::string shardJournalPath(const std::string &journal_dir,
                             std::uint64_t epoch);

/**
 * Run one shard worker to completion. Returns a SHARD_EXIT_* code
 * (KillShard _exit()s instead of returning). Blocking; the caller is
 * expected to be a dedicated process (aurora_shardd main, or a
 * fork()ed child of the coordinator or a test).
 */
int runShardWorker(const ShardWorkerConfig &config);

} // namespace aurora::shard

#endif // AURORA_SHARD_SHARDD_HH
