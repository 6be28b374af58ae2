/**
 * @file
 * Swarm coordinator: lease-fenced supervision of a shard fleet.
 *
 * The coordinator owns a sweep grid end to end: it groups the jobs
 * that replay one trace into lockstep **units** (harness::planUnits
 * over the shard count), leases one unit per Assign to N shard
 * worker processes over the 'ASW1' wire protocol, and is the single
 * commit point — a job is done exactly when the coordinator accepts
 * its Result, and it can be accepted at most once. A job's grid index
 * is its only id, on the wire, in both journals and in span ids.
 *
 * Supervision model (docs/distributed.md has the failure matrix):
 *
 *  - **Lease**: every shard incarnation holds an epoch-numbered
 *    lease, renewed by Beat messages. Epochs come from one global
 *    counter, so an epoch identifies an incarnation uniquely.
 *  - **Fencing**: a missed lease (no Beat within lease_ms), a
 *    dropped connection, or a protocol violation revokes the lease:
 *    the epoch joins the fenced set, and from that instant every
 *    message stamped with it — however delayed — is refused. A
 *    fenced shard's connection is *kept open* when possible, so a
 *    zombie's late Result can be observed, counted (AUR304), and
 *    answered with Fenced rather than silently ignored.
 *  - **Migration**: what is left of each unit in flight on a fenced
 *    incarnation returns to the front of the pending queue as a
 *    unit, in order, and reassigns to live shards. Determinism makes
 *    this safe: a job's result depends only on the job, so running
 *    it on a different shard — or twice, once behind the fence —
 *    cannot change what commits.
 *  - **Respawn**: a fenced slot is refilled with a fresh child
 *    process, at most eight times per grid across all slots; a
 *    grid fails as a lost fleet only once that budget is spent and
 *    no worker is left.
 *
 * The final step of runGrid() is the deterministic merge
 * (shard_journal.hh): every commit is cross-checked byte-for-byte
 * against the per-epoch shard journals and every uncommitted journal
 * entry must sit behind the fence. The returned outcomes are in
 * submission order and bit-identical to a single-process
 * SweepRunner::runOutcomes() of the same grid (test_shard_merge
 * proves this across shard counts × kill schedules).
 */

#ifndef AURORA_SHARD_SWARM_HH
#define AURORA_SHARD_SWARM_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/flight.hh"
#include "shard_journal.hh"
#include "shard_wire.hh"
#include "util/frame.hh"
#include "util/stats.hh"

namespace aurora::obs
{
class SpanLog;
}

namespace aurora::shard
{

/** How the coordinator obtains its shard worker processes. */
enum class SpawnMode
{
    /** fork() children that run runShardWorker() in-process — the
     *  default for the CLI and tests (no exec, no binary path). */
    Fork,
    /** fork()+exec() the `aurora_shardd` binary named by
     *  SwarmConfig::shardd_path — the mode for a multithreaded host,
     *  where fork-without-exec is unsafe, and the path the `check.sh
     *  shard` drill SIGKILLs real worker processes on. */
    Exec,
};

struct SwarmConfig
{
    /** Unix socket the coordinator listens on. */
    std::string socket_path;
    /** Directory for per-epoch shard journals; shared with every
     *  worker (shardJournalPath()). */
    std::string journal_dir;
    /** Shard slots (target fleet size). */
    std::uint32_t shards = 2;
    SpawnMode spawn = SpawnMode::Fork;
    /** aurora_shardd binary (Exec mode). */
    std::string shardd_path;
    /** Miss Beats for this long and the lease is fenced; shards are
     *  told to beat every lease_ms / 4. A shard beats while it
     *  simulates too, so the lease bounds silence, not job time: a
     *  wedged unit is ended by the watchdog and deadline. */
    std::uint64_t lease_ms = 10'000;
    /** Scripted sabotage per initial slot (respawned replacements
     *  are always healthy). */
    std::vector<std::optional<faultinject::ShardFaultPlan>> fault_plans;
    /** Log supervision events (fences, migrations, respawns). */
    bool verbose = false;
    /**
     * Observability directory: the coordinator spools its flight
     * recorder to `<dir>/swarm.flight`, and every worker it spawns
     * (via ShardWorkerConfig or --flight-dir) writes
     * `<dir>/shard-e<epoch>.flight` + `.spans` there. Empty = no
     * flight recording and no shard span files.
     */
    std::string flight_dir;
};

/** Per-grid execution policy (the SweepOptions subset that crosses
 *  the wire, plus the coordinator's own durability knobs). */
struct GridOptions
{
    std::optional<std::uint64_t> base_seed;
    std::uint32_t retries = 0;
    std::uint64_t deadline_ms = 0;
    std::uint64_t backoff_ms = 0;
    /** Commit journal path (standard harness journal format,
     *  readable by loadJournal and resumable); empty = none. */
    std::string journal;
    /** Replay ok outcomes from an existing commit journal; only
     *  missing/failed jobs are dealt to shards. */
    bool resume = false;
    /** Lint the grid before dealing any work (preflightGrid()). */
    bool preflight = true;
    /**
     * Causal trace id of the grid (0 = untraced). Carried to the
     * shards in Assign so the whole fabric derives one span family.
     */
    std::uint64_t trace_id = 0;
    /**
     * Sink for the coordinator's supervision spans (lease grants,
     * dispatches, migrations, merge) plus the shard attempt spans
     * folded in from flight_dir at merge time. Must outlive runGrid.
     * nullptr = no span collection.
     */
    obs::SpanLog *span_log = nullptr;
};

/** Supervision counters (asserted by tests, printed by the CLI). */
struct SwarmStats
{
    std::uint64_t granted_leases = 0;
    /** Leases fenced for missed beats (AUR301/AUR303). */
    std::uint64_t lease_expiries = 0;
    /** Leases fenced because the connection dropped (AUR302). */
    std::uint64_t shard_exits = 0;
    /** Stale-epoch Results refused behind the fence (AUR304). */
    std::uint64_t fenced_results = 0;
    /** Protocol violations (AUR305). */
    std::uint64_t protocol_errors = 0;
    /** Jobs migrated off fenced incarnations. */
    std::uint64_t migrated_jobs = 0;
    /** Replacement workers spawned. */
    std::uint64_t respawns = 0;
    /** Results committed (exactly-once; excludes resumed). */
    std::uint64_t committed = 0;
    /** Ok outcomes replayed from the commit journal. */
    std::uint64_t resumed = 0;
    /** Summed lifetime of closed leases, in ms (grant → fence/drain/
     *  shutdown); mean lease age = lease_ms_total / granted_leases. */
    std::uint64_t lease_ms_total = 0;
};

/**
 * The coordinator. Construction binds the socket; runGrid() runs its
 * one grid to completion in the calling thread (single-threaded poll
 * loop — fork()-spawning is safe because the coordinator never holds
 * locks across fork()). A Swarm runs one grid: build one per grid.
 */
class Swarm
{
  public:
    explicit Swarm(SwarmConfig config);
    ~Swarm();

    Swarm(const Swarm &) = delete;
    Swarm &operator=(const Swarm &) = delete;

    /**
     * Execute @p grid across the shard fleet (once per Swarm) and
     * return submission-order outcomes bit-identical to a
     * single-process SweepRunner::runOutcomes() of the same grid.
     * Spawns a fleet of SwarmConfig::shards workers, supervises
     * leases, migrates work off fenced shards, then merge-verifies
     * the per-epoch shard journals before returning. Throws SimError on
     * unrecoverable failure (merge violation, fleet lost and
     * unrecoverable, preflight rejection, bad resume journal).
     */
    std::vector<harness::SweepOutcome>
    runGrid(const std::vector<harness::SweepJob> &grid,
            const GridOptions &options);

    const SwarmStats &stats() const { return stats_; }

    /** Epochs revoked so far (tests inspect the fence set). */
    const std::set<std::uint64_t> &fencedEpochs() const
    {
        return fenced_epochs_;
    }

  private:
    using Clock = std::chrono::steady_clock;
    /** Grid indices of jobs that replay one trace, dealt in one
     *  Assign and run in lockstep (harness::planUnits). */
    using Unit = harness::SweepRunner::Unit;

    /** One shard slot (current incarnation, if any). */
    struct Slot
    {
        /** Closed = vacant. Unsent frames wait in its buffer: a
         *  wedged shard must not block the coordinator in a send. */
        util::FramedConn conn{wire::SHARD_MAGIC};
        std::uint64_t epoch = 0;
        Clock::time_point last_beat{};
        Clock::time_point last_msg{};
        /** Units in flight on this incarnation, oldest first, each
         *  down to its uncommitted jobs. */
        std::deque<Unit> assigned;
        /** Pid the worker reported in its Hello (-1 = vacant). */
        long pid = -1;
        /** Lease-grant timestamp on the obs clock (lease span start). */
        double lease_start_us = 0.0;
    };

    /** A connection whose epoch is fenced, kept open to observe and
     *  refuse zombie traffic (plus not-yet-welcomed dialers at
     *  epoch 0). */
    struct Loner
    {
        util::FramedConn conn{wire::SHARD_MAGIC};
        std::uint64_t epoch = 0; ///< 0 = awaiting Hello
    };

    /** One grid job's coordination state (jobs_[grid index]). */
    struct Job
    {
        wire::JobSpec spec;
        /** Set once the job's Result is accepted. */
        std::optional<CommitRef> commit;
        /** Obs-clock timestamp of the live assignment (dispatch span
         *  start; 0 = not currently assigned). */
        double assigned_us = 0.0;
        /** Epoch of the live assignment. */
        std::uint64_t assigned_epoch = 0;
    };

    void spawnWorker(
        const std::optional<faultinject::ShardFaultPlan> &fault);
    void grantLease(Loner &&dialer, std::uint64_t pid);
    void fenceSlot(std::uint32_t slot_index, const char *diagnostic,
                   bool keep_connection);
    void migrateAssigned(Slot &slot);
    void assignPending();
    /** Queue @p payload to a leased slot and flush what its socket
     *  takes (a vacant slot drops it). */
    void sendToSlot(std::uint32_t slot_index, const std::string &payload);
    /** Fence a slot whose connection failed with @p status. */
    void dropSlot(std::uint32_t slot_index, util::ConnStatus status);
    void pollOnce(int timeout_ms);
    /** Each returns whether to keep reading the connection. */
    bool handleSlotMessage(std::uint32_t slot_index,
                           const std::string &payload);
    bool handleLonerMessage(Loner &loner, const std::string &payload);
    void checkLeases();
    void reapChildren();
    void shutdownFleet();

    /** Microseconds on the coordinator's obs clock. */
    double obsNowUs() const { return obs_timer_.seconds() * 1e6; }
    /** Record a coordinator span (no-op when span_log_ is unset). */
    void obsSpan(std::uint64_t span_id, std::uint64_t parent_id,
                 std::string name, std::string cat, double ts_us,
                 double dur_us, bool instant = false,
                 std::string error = {});
    /** Close the lease span + flight-note a fence/drain of @p slot. */
    void obsLeaseEnd(const Slot &slot, const char *how,
                     const char *diagnostic);
    /** Close the dispatch span of @p job (commit or migration). */
    void obsDispatchEnd(Job &job, bool committed, const char *error);

    SwarmConfig config_;
    util::Fd listener_;
    std::vector<Slot> slots_;
    std::vector<Loner> loners_;
    /** Unreaped pids of every spawned worker. */
    std::vector<long> children_;
    std::uint64_t next_epoch_ = 0;
    std::vector<Job> jobs_;
    std::deque<Unit> pending_;
    std::uint64_t open_jobs_ = 0;
    /** runGrid() has been called (a Swarm runs one grid). */
    bool ran_ = false;
    std::set<std::uint64_t> fenced_epochs_;
    std::vector<ShardJournalRef> journal_refs_;
    /** The grid's commit journal (null = none requested). */
    std::unique_ptr<harness::JournalWriter> commit_journal_;
    Clock::time_point last_spawn_{};
    /** Set while shutdownFleet() drains: slot EOFs are clean exits
     *  (not AUR302) and late dialers get Shutdown, not a lease. */
    bool draining_ = false;
    SwarmStats stats_;
    /** Obs clock epoch (span timestamps). */
    WallTimer obs_timer_;
    /** Coordinator flight recorder (spooled when flight_dir set). */
    obs::FlightRecorder flight_;
    /** The grid's trace context and policy. */
    std::uint64_t trace_id_ = 0;
    wire::GridPolicy policy_;
    obs::SpanLog *span_log_ = nullptr;
};

} // namespace aurora::shard

#endif // AURORA_SHARD_SWARM_HH
