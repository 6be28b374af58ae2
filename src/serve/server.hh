/**
 * @file
 * The aurora_serve daemon: a crash-recoverable, multi-tenant sweep
 * service over a local socket.
 *
 * One resident process owns one worker pool and multiplexes it across
 * every tenant's sweep grids. Architecture: a single poll() thread
 * owns the listener, all client sessions, and all protocol state;
 * N worker threads pull (grid, job) units from the fair Scheduler and
 * execute each through harness::runJob() — so seed derivation,
 * retry/backoff, and deadline semantics are *literally* the library's,
 * and a grid run through the service is bit-identical to the same
 * grid run by a standalone SweepRunner.
 *
 * Durability contract (the tentpole): every accepted grid is
 * persisted in the spool directory as a manifest (ManifestSubmit:
 * the admitted SubmitMsg, trace id included, re-parseable via
 * config_io round-tripping) plus a sweep
 * journal (one flushed record per completed job, appended by the
 * worker *before* the completion becomes visible). A SIGKILLed
 * daemon therefore restarts, rescans the spool, replays journaled
 * outcomes bit-exactly, and re-queues only the missing jobs; clients
 * re-attach by grid fingerprint and replay the stream. Unlike
 * standalone resume (which re-runs failed jobs), the service journals
 * outcomes *after* its retry budget, so every journaled record —
 * success or failure — is terminal and replays on restart.
 *
 * Graceful degradation: SIGTERM (or requestDrain()) flips the daemon
 * into drain mode — new submissions are refused with AUR204, queued
 * jobs stay persisted in the spool for the next incarnation, running
 * jobs finish and are journaled, every client gets a Draining notice,
 * and run() returns so the process can exit 0.
 */

#ifndef AURORA_SERVE_SERVER_HH
#define AURORA_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/journal.hh"
#include "obs/flight.hh"
#include "scheduler.hh"
#include "session.hh"
#include "telemetry/registry.hh"
#include "util/codec.hh"
#include "util/socket.hh"
#include "wire.hh"

namespace aurora::serve
{

/// @name Spool manifest: one <fingerprint>.grid record file per grid
/// @{

/** Record type tags (payload byte 0). */
enum class ManifestTag : std::uint8_t
{
    Submit = 1,
    Cancel = 2,
};

inline constexpr util::codec::Format<ManifestTag, 2> MANIFEST_FORMAT{
    util::SimErrorCode::BadJournal,
    "manifest record",
    {{{ManifestTag::Submit, "submit"}, {ManifestTag::Cancel, "cancel"}}}};

constexpr const auto &
formatOf(ManifestTag)
{
    return MANIFEST_FORMAT;
}

inline constexpr std::uint32_t MANIFEST_VERSION = 1;

/** Record 0: the submission as admitted. Its SubmitMsg fields carry
 *  their trailing trace id, so an untraced grid's record is exactly
 *  the pre-tracing layout. */
struct ManifestSubmit
{
    static constexpr ManifestTag TAG = ManifestTag::Submit;

    std::uint64_t fingerprint = 0;
    std::string tenant;
    wire::SubmitMsg submit;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io.expect(MANIFEST_VERSION, "manifest format version");
        io(m.fingerprint, m.tenant, m.submit);
    }
};

/** Appended once when the grid is cancelled. */
struct ManifestCancel
{
    static constexpr ManifestTag TAG = ManifestTag::Cancel;

    template <typename Io, typename Self>
    static void
    fields(Io &, Self &)
    {
    }
};

/// @}

struct ServerConfig
{
    /** Unix-domain socket path clients connect to. */
    std::string socket_path;
    /** Spool directory for grid manifests + journals (created if
     *  absent). The durable half of the daemon: everything needed to
     *  resume after SIGKILL lives here, nothing else does. */
    std::string spool_dir;
    /** Worker threads. 0 = defaultWorkers() (AURORA_JOBS / cores). */
    unsigned workers = 0;
    /** Admission quotas and capacity bounds. */
    ServiceLimits limits;
    /** Progress-heartbeat cadence in completed jobs per grid.
     *  0 = automatic: max(1, jobs/4). */
    std::size_t progress_every = 0;
    /** Log lifecycle lines (accepts, drains, resumes) via inform(). */
    bool verbose = false;
    /** Horizontal-scale backend: 0 (default) executes jobs on the
     *  in-process worker pool; N > 0 replaces the pool with one
     *  dispatcher thread that deals each grid to a fleet of N
     *  `aurora_shardd` processes under lease-fenced supervision
     *  (shard::Swarm, Exec spawn mode — fork-without-exec is unsafe
     *  in this multithreaded host). Fairness then rotates per grid
     *  rather than per job, and cancellation of dealt jobs takes
     *  effect at grid boundaries. */
    unsigned shards = 0;
    /** Path to the aurora_shardd binary (required when shards > 0). */
    std::string shardd_path;
};

/** Locked snapshot of daemon state (Status requests, tests). */
struct ServerStats
{
    std::size_t grids = 0;
    std::size_t done_grids = 0;
    std::size_t queued_jobs = 0;
    std::size_t running_jobs = 0;
    std::size_t done_jobs = 0;
    std::size_t sessions = 0;
    bool draining = false;
};

class Server
{
  public:
    /**
     * Bind the socket, create the spool directory, and resume every
     * grid found in the spool (journaled outcomes replay bit-exactly;
     * missing jobs re-queue). After construction the socket exists
     * and clients may connect; call run() to start serving. Throws
     * SimError (BadWire/BadJournal) when the socket or spool is
     * unusable.
     */
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Serve until drained: blocks running the poll loop and worker
     * pool, returns after requestDrain() (or SIGTERM/SIGINT via
     * installSignalHandlers()) once running jobs have finished and
     * been journaled. Queued jobs persist in the spool for the next
     * incarnation.
     */
    void run();

    /** Begin graceful drain (thread-safe; idempotent). */
    void requestDrain();

    /**
     * Route SIGTERM and SIGINT to requestDrain() on this server (one
     * server per process). The handler is async-signal-safe: it sets
     * a flag and writes one byte to the poll loop's wake pipe.
     */
    void installSignalHandlers();

    /** Snapshot of current state (thread-safe). */
    ServerStats stats();

    /** Grids reloaded from the spool by the constructor. */
    std::size_t resumedGrids() const { return resumed_grids_; }

    /** Jobs whose journaled outcomes replayed at startup. */
    std::size_t resumedJobs() const { return resumed_jobs_; }

    const std::string &socketPath() const { return config_.socket_path; }

  private:
    struct Grid;

    void loadSpool();
    /** A fresh resident grid for @p manifest's submission, whose
     *  executable jobs are @p jobs (Submit and spool resume alike). */
    std::unique_ptr<Grid> makeGrid(const ManifestSubmit &manifest,
                                   std::vector<harness::SweepJob> jobs);
    void startWorkers();
    void stopWorkers();
    /**
     * Dispatch step one, shared by both loops: wait for queued work
     * and claim it under mutex_ — the scheduler's next job into
     * @p batch, plus, when @p whole_grid, the rest of that grid's
     * queued jobs — marking each Running. Returns the jobs' grid, or
     * nullptr once the workers are told to stop.
     */
    Grid *claim(bool whole_grid, std::vector<std::size_t> &batch);
    /**
     * Dispatch step two: journal every one of @p records, then post
     * them all (applyRecord, release the tenant's charge, queue the
     * completion) under one mutex_ hold and wake the poll loop.
     */
    void commit(Grid &grid, std::vector<harness::JournalRecord> records);
    void workerMain();
    void shardMain();
    void beginDrain();
    void pollCycle();
    void acceptPending();
    void readSession(Session &session);
    void handlePayload(Session &session, const std::string &payload);
    void handleHello(Session &session, const std::string &payload);
    void handleSubmit(Session &session, const std::string &payload);
    void handleAttach(Session &session, const std::string &payload);
    void handleCancel(Session &session, const std::string &payload);
    void handleStatus(Session &session);
    void handleMetrics(Session &session, const std::string &payload);
    /** Render one metrics exposition (Prometheus or JSON). Takes its
     *  own locks (mutex_ for the gauge snapshot, then
     *  metrics_mutex_); call with neither held. */
    std::string renderMetrics(wire::MetricsFormat format);
    /** Write the grid's merged Chrome trace next to its spool pair;
     *  mutex_ held (once per grid, at completion). */
    void writeGridTrace(Grid &grid);
    void reject(Session &session, const std::string &id,
                util::SimErrorCode code, const std::string &message,
                bool fatal = false);
    void drainCompletions();
    void streamOutcome(Grid &grid, std::size_t index);
    void finalizeCancelledUnit(Grid &grid, std::size_t job_index);
    void cancelGrid(Grid &grid);
    void markCancelManifest(Grid &grid);
    void gridCompleted(Grid &grid);
    void applyRecord(Grid &grid, harness::JournalRecord record,
                     bool from_journal);
    harness::JournalRecord cancelRecord(const Grid &grid,
                                        std::size_t index) const;
    void broadcast(std::uint64_t fingerprint,
                   const std::string &payload);
    void reapDeadSessions();
    void sessionClosed(Session &session);
    std::string spoolFile(std::uint64_t fingerprint,
                          const char *suffix) const;

    ServerConfig config_;
    util::Fd listener_;
    util::WakePipe wake_;

    /** Guards scheduler_, grids_, completions_, counters. */
    std::mutex mutex_;
    std::condition_variable cv_;
    Scheduler scheduler_;
    /** Service metrics (counters + latency histograms), exposed via
     *  the wire Metrics request. Guarded by metrics_mutex_ — a leaf
     *  lock (mutex_ may be held when taking it, never the reverse),
     *  because reject() runs both with and without mutex_ held. */
    std::mutex metrics_mutex_;
    telemetry::Registry metrics_;
    /** Crash-durable event ring, spooled to spool_dir/serve.flight;
     *  internally synchronized (note() is lock-cheap, dump() is
     *  async-signal-safe). */
    obs::FlightRecorder flight_;
    std::map<std::uint64_t, std::unique_ptr<Grid>> grids_;
    /** (fingerprint, job index) pairs finished by workers, awaiting
     *  streaming by the poll loop. */
    std::deque<std::pair<std::uint64_t, std::size_t>> completions_;
    std::size_t running_jobs_ = 0;
    std::size_t done_jobs_ = 0;
    std::size_t done_grids_ = 0;

    std::vector<std::thread> workers_;
    bool workers_stop_ = false;

    /** Poll-loop-owned. */
    std::vector<std::unique_ptr<Session>> sessions_;
    /** Mirror of sessions_.size() readable from stats(). */
    std::atomic<std::size_t> session_count_{0};
    bool draining_ = false;

    std::atomic<bool> drain_requested_{false};
    /** Set by the signal trampoline (async-signal-safe). */
    volatile std::sig_atomic_t signal_drain_ = 0;

    std::size_t resumed_grids_ = 0;
    std::size_t resumed_jobs_ = 0;
};

} // namespace aurora::serve

#endif // AURORA_SERVE_SERVER_HH
