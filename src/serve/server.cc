#include "server.hh"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <utility>

#include "analyze/lint_config.hh"
#include "core/config_io.hh"
#include "core/simulator.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/ids.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "trace/spec_profiles.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/record_io.hh"

namespace aurora::serve
{

namespace fs = std::filesystem;

namespace
{

/** A spool manifest as read back. */
struct Manifest
{
    ManifestSubmit submission;
    bool cancelled = false;
};

/**
 * Read a spool manifest, cutting a torn tail (a kill during the
 * cancel-marker append: the grid simply stays uncancelled) so the
 * file appends again. Throws SimError(BadJournal) when the submission
 * record is missing, torn, corrupt, or version-skewed — such a grid
 * was never acknowledged to a client (the manifest is written before
 * Accepted), so skipping it loses nothing durable.
 */
Manifest
readManifest(const std::string &path)
{
    const util::RecordFile file = util::readRecordFile(path, "manifest");
    Manifest man;
    try {
        man.submission =
            util::codec::decode<ManifestSubmit>(file.payloads.front());
        for (std::size_t k = 1; k < file.payloads.size(); ++k) {
            (void)util::codec::decode<ManifestCancel>(file.payloads[k]);
            man.cancelled = true;
        }
    } catch (const util::SimError &e) {
        util::raiseError(e.code(), "manifest '", path, "': ",
                         e.message());
    }
    if (file.dropped_tail)
        fs::resize_file(path, file.valid_bytes);
    return man;
}

/**
 * Rebuild executable sweep jobs from their portable textual form.
 * parseMachineSpec() round-trips describe() exactly and
 * profileByName() returns the profile with its canonical seed, so
 * the rebuilt grid fingerprints identically to the submitted one.
 * Throws SimError(BadConfig) on an unknown model key or profile.
 */
std::vector<harness::SweepJob>
buildJobs(const std::vector<wire::SubmitJob> &specs)
{
    std::vector<harness::SweepJob> jobs;
    jobs.reserve(specs.size());
    for (const wire::SubmitJob &spec : specs) {
        harness::SweepJob job;
        job.machine = core::parseMachineSpec(spec.machine_spec);
        job.profile = trace::profileByName(spec.profile);
        job.instructions = spec.instructions != 0
                               ? spec.instructions
                               : core::DEFAULT_RUN_INSTS;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** Signal-handler plumbing: one server per process (asserted in
 *  installSignalHandlers); the handler only touches these. */
volatile std::sig_atomic_t *g_drain_flag = nullptr;
const util::WakePipe *g_drain_wake = nullptr;
obs::FlightRecorder *g_flight = nullptr;

extern "C" void
auroraServeDrainSignal(int)
{
    if (g_flight != nullptr)
        g_flight->dump("signal"); // async-signal-safe (write() only)
    if (g_drain_flag != nullptr)
        *g_drain_flag = 1;
    if (g_drain_wake != nullptr)
        g_drain_wake->notify();
}

/** Latency histograms: unit-width millisecond buckets; samples past
 *  the last bucket land in the overflow (percentile() then reports
 *  the max sample, which is the honest answer for a tail). */
constexpr std::size_t LATENCY_BUCKETS_MS = 512;

} // namespace

/** One resident sweep grid (all fields guarded by Server::mutex_
 *  except `cancelled`, read lock-free by workers, and `journal`,
 *  internally locked). */
struct Server::Grid
{
    explicit Grid(std::uint64_t trace)
        : trace_id(trace), span_log(obs::TraceContext{trace})
    {
    }

    enum class JobState : std::uint8_t
    {
        Pending,
        Running,
        Done,
    };

    std::uint64_t fingerprint = 0;
    std::string tenant;
    std::string label;
    std::vector<harness::SweepJob> jobs;
    std::optional<std::uint64_t> base_seed;
    std::uint64_t deadline_ms = 0;
    std::uint32_t retries = 0;
    std::uint64_t backoff_ms = 0;
    bool cancel_on_disconnect = false;

    std::vector<JobState> state;
    /** Terminal outcome per job, valid where state == Done — the
     *  attach-replay source and the bytes streamed to watchers. */
    std::vector<harness::JournalRecord> records;
    std::size_t done = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timed_out = 0;
    std::size_t cancelled_jobs = 0;
    std::size_t resumed = 0;
    /** Outcomes whose Result frame has been broadcast (or that were
     *  already terminal at load). Completions drain in batches, so
     *  `done` can reach the total while earlier Results still wait in
     *  the queue — GridDone must key off this counter, not `done`, or
     *  it would overtake the tail of the result stream. */
    std::size_t streamed = 0;
    bool done_notified = false;
    /** submit→first-Result latency recorded (once per residency). */
    bool first_result_recorded = false;
    /** MAN_CANCEL already appended to the manifest. */
    bool cancel_marked = false;
    std::atomic<bool> cancelled{false};
    std::unique_ptr<harness::JournalWriter> journal;
    WallTimer timer;
    std::size_t cadence = 1;

    /** Causal trace id: client-supplied (kept in the manifest) or
     *  minted from the fingerprint; a restart recovers either. */
    const std::uint64_t trace_id;
    /** Every span of the grid on this daemon's side — admission and
     *  the worker pool's job and attempt spans (internally locked;
     *  observation only, never feeds back into outcomes). Its clock
     *  is the serve track's. */
    obs::SpanLog span_log;

    bool complete() const { return done == jobs.size(); }

    std::size_t
    pendingJobs() const
    {
        return static_cast<std::size_t>(
            std::count(state.begin(), state.end(), JobState::Pending));
    }
};

Server::Server(ServerConfig config) : config_(std::move(config))
{
    AURORA_ASSERT(!config_.socket_path.empty() &&
                      !config_.spool_dir.empty(),
                  "aurora_serve needs a socket path and a spool dir");
    scheduler_ = Scheduler(config_.limits);
    fs::create_directories(config_.spool_dir);
    flight_.spoolTo(config_.spool_dir + "/serve.flight");
    flight_.note("startup", {},
                 detail::concat("workers=", config_.workers));
    loadSpool();
    listener_ = util::listenUnix(config_.socket_path);
}

Server::~Server()
{
    if (g_drain_flag == &signal_drain_) {
        g_drain_flag = nullptr;
        g_drain_wake = nullptr;
        g_flight = nullptr;
    }
    if (listener_.valid()) {
        listener_.reset();
        std::error_code ec;
        fs::remove(config_.socket_path, ec);
    }
}

void
Server::installSignalHandlers()
{
    AURORA_ASSERT(g_drain_flag == nullptr ||
                      g_drain_flag == &signal_drain_,
                  "only one Server per process may install signal "
                  "handlers");
    g_drain_flag = &signal_drain_;
    g_drain_wake = &wake_;
    g_flight = &flight_;
    struct sigaction sa = {};
    sa.sa_handler = auroraServeDrainSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
}

void
Server::requestDrain()
{
    drain_requested_.store(true);
    wake_.notify();
}

std::string
Server::spoolFile(std::uint64_t fingerprint, const char *suffix) const
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << fingerprint;
    return config_.spool_dir + "/" + os.str() + suffix;
}

harness::JournalRecord
Server::cancelRecord(const Grid &grid, std::size_t index) const
{
    harness::SweepOutcome out;
    out.code = util::SimErrorCode::Cancelled;
    out.error = "cancelled while queued";
    out.attempts = 0;
    return harness::jobRecord(grid.jobs[index], index, grid.base_seed,
                              std::move(out));
}

void
Server::applyRecord(Grid &grid, harness::JournalRecord record,
                    bool from_journal)
{
    const std::size_t index = record.job_index;
    AURORA_ASSERT(index < grid.jobs.size() &&
                      grid.state[index] != Grid::JobState::Done,
                  "duplicate or out-of-range outcome for job ", index);
    if (from_journal) {
        record.outcome.resumed = true;
        ++grid.resumed;
    }
    if (record.outcome.ok)
        ++grid.ok;
    else if (record.outcome.code == util::SimErrorCode::Timeout)
        ++grid.timed_out;
    else if (record.outcome.code == util::SimErrorCode::Cancelled)
        ++grid.cancelled_jobs;
    else
        ++grid.failed;
    grid.state[index] = Grid::JobState::Done;
    grid.records[index] = std::move(record);
    ++grid.done;
    ++done_jobs_;
}

std::unique_ptr<Server::Grid>
Server::makeGrid(const ManifestSubmit &manifest,
                 std::vector<harness::SweepJob> jobs)
{
    const wire::SubmitMsg &msg = manifest.submit;
    // Causal trace id: the client's if it sent one, else minted from
    // the fingerprint. The manifest keeps the client's, and the
    // minted one is a pure function of the fingerprint, so a
    // restarted daemon resumes the grid in the same trace either way.
    auto grid = std::make_unique<Grid>(
        msg.trace_id != 0 ? msg.trace_id
                          : obs::traceIdForGrid(manifest.fingerprint));
    grid->fingerprint = manifest.fingerprint;
    grid->tenant = manifest.tenant;
    grid->label = msg.label;
    grid->jobs = std::move(jobs);
    grid->base_seed = msg.has_base_seed
                          ? std::optional<std::uint64_t>(msg.base_seed)
                          : std::nullopt;
    grid->deadline_ms = msg.deadline_ms;
    grid->retries = msg.retries;
    grid->backoff_ms = msg.backoff_ms;
    grid->cancel_on_disconnect = msg.cancel_on_disconnect;
    grid->state.resize(grid->jobs.size(), Grid::JobState::Pending);
    grid->records.resize(grid->jobs.size());
    grid->cadence =
        config_.progress_every != 0
            ? config_.progress_every
            : std::max<std::size_t>(1, grid->jobs.size() / 4);
    return grid;
}

void
Server::loadSpool()
{
    std::vector<fs::path> manifests;
    for (const auto &entry : fs::directory_iterator(config_.spool_dir))
        if (entry.path().extension() == ".grid")
            manifests.push_back(entry.path());
    std::sort(manifests.begin(), manifests.end());

    for (const fs::path &path : manifests) {
        Manifest man;
        try {
            man = readManifest(path.string());
        } catch (const util::SimError &e) {
            // The manifest is written (and flushed) before a client
            // ever sees Accepted, so an unreadable one was never
            // acknowledged: drop the pair, nothing durable is lost.
            warn(detail::concat("spool: dropping unusable manifest ",
                                path.string(), ": ", e.what()));
            std::error_code ec;
            fs::remove(path, ec);
            continue;
        }
        const ManifestSubmit &submission = man.submission;
        std::unique_ptr<Grid> grid;
        try {
            grid = makeGrid(submission, buildJobs(submission.submit.jobs));
        } catch (const util::SimError &e) {
            warn(detail::concat("spool: manifest ", path.string(),
                                " references an unknown model or "
                                "profile: ",
                                e.what()));
            continue;
        }

        const std::uint64_t fp =
            harness::gridFingerprint(grid->jobs, grid->base_seed);
        if (fp != submission.fingerprint) {
            warn(detail::concat(
                "spool: manifest ", path.string(),
                " fingerprint does not match its jobs; skipping"));
            continue;
        }

        const std::string journal_path = spoolFile(fp, ".ajrn");
        bool reopened = false;
        if (fs::exists(journal_path)) {
            try {
                const harness::LoadedJournal loaded =
                    harness::loadJournalForAppend(journal_path);
                if (loaded.fingerprint != fp ||
                    loaded.jobs != grid->jobs.size())
                    util::raiseError(
                        util::SimErrorCode::BadJournal, "journal '",
                        journal_path,
                        "' does not match its manifest");
                for (const harness::JournalRecord &rec :
                     loaded.records)
                    if (grid->state[rec.job_index] !=
                        Grid::JobState::Done) {
                        applyRecord(*grid, rec,
                                    /*from_journal=*/true);
                        ++resumed_jobs_;
                    }
                grid->journal =
                    std::make_unique<harness::JournalWriter>(
                        journal_path);
                reopened = true;
            } catch (const util::SimError &e) {
                // A rotted journal must not poison the grid: the
                // manifest alone fully determines the work, so warn
                // and rerun from scratch (standalone resume refuses
                // instead — it has no manifest to fall back on).
                warn(detail::concat("spool: journal ", journal_path,
                                    " unusable (", e.what(),
                                    "); rerunning grid from scratch"));
                std::error_code ec;
                fs::remove(journal_path, ec);
                // Back out any partially-applied replay accounting.
                done_jobs_ -= grid->done;
                resumed_jobs_ -= grid->resumed;
                grid = makeGrid(submission, std::move(grid->jobs));
            }
        }
        if (!reopened)
            grid->journal = std::make_unique<harness::JournalWriter>(
                journal_path, fp, grid->jobs.size());

        if (man.cancelled) {
            grid->cancelled.store(true);
            grid->cancel_marked = true;
            for (std::size_t i = 0; i < grid->jobs.size(); ++i)
                if (grid->state[i] == Grid::JobState::Pending) {
                    harness::JournalRecord rec = cancelRecord(*grid, i);
                    grid->journal->append(rec);
                    applyRecord(*grid, std::move(rec),
                                /*from_journal=*/false);
                }
        }

        ++resumed_grids_;
        flight_.note("grid.resume", {},
                     detail::concat("fp=", fp, " done=", grid->done,
                                    "/", grid->jobs.size()));
        // Everything terminal at load time is delivered by attach
        // replay, never by streamOutcome().
        grid->streamed = grid->done;
        if (grid->complete()) {
            grid->done_notified = true;
            ++done_grids_;
        } else {
            scheduler_.admitGrid(grid->tenant, grid->pendingJobs());
            for (std::size_t i = 0; i < grid->jobs.size(); ++i)
                if (grid->state[i] == Grid::JobState::Pending)
                    scheduler_.enqueue(grid->tenant,
                                       SchedUnit{fp, i});
        }
        if (config_.verbose)
            inform(detail::concat(
                "spool: resumed grid ", spoolFile(fp, ""), " (",
                grid->done, "/", grid->jobs.size(),
                " jobs journaled)"));
        grids_[fp] = std::move(grid);
    }
}

Server::Grid *
Server::claim(std::size_t &index)
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::optional<SchedUnit> next;
    while (!next) {
        cv_.wait(lock, [this] {
            return workers_stop_ || scheduler_.hasWork();
        });
        if (workers_stop_)
            return nullptr;
        next = scheduler_.take();
    }
    Grid *grid = grids_.at(next->fingerprint).get();
    index = next->job_index;
    grid->state[index] = Grid::JobState::Running;
    ++running_jobs_;
    return grid;
}

void
Server::commit(Grid &grid, harness::JournalRecord record)
{
    // Durable before visible: the append is flushed before the
    // completion is posted, so a SIGKILL landing here loses nothing a
    // client was ever told about.
    grid.journal->append(record);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const std::size_t index = record.job_index;
        applyRecord(grid, std::move(record), /*from_journal=*/false);
        scheduler_.jobFinished(grid.tenant);
        completions_.emplace_back(grid.fingerprint, index);
        --running_jobs_;
    }
    wake_.notify();
}

void
Server::workerMain()
{
    std::size_t index = 0;
    while (Grid *grid = claim(index)) {
        harness::SweepOptions policy;
        policy.base_seed = grid->base_seed;
        policy.retries = grid->retries;
        policy.deadline_ms = grid->deadline_ms;
        policy.backoff_ms = grid->backoff_ms;
        policy.cancel = &grid->cancelled;
        policy.span_log = &grid->span_log;
        commit(*grid, harness::runJob(grid->jobs[index], index,
                                      std::move(policy)));
    }
}

void
Server::startWorkers()
{
    unsigned count = config_.workers != 0 ? config_.workers
                                          : defaultWorkers();
    count = std::max(1u, count);
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

void
Server::stopWorkers()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        workers_stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

void
Server::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        scheduler_.beginDrain();
        workers_stop_ = true;
    }
    cv_.notify_all();
    flight_.note("drain", "AUR204", "drain requested");
    const std::string notice = wire::encode(wire::DrainingMsg{
        "daemon draining: running jobs are finishing; queued jobs "
        "are persisted in the spool and resume on restart"});
    for (const auto &session : sessions_)
        if (!session->dead())
            session->queueFrame(notice);
    if (config_.verbose)
        inform("aurora_serve: drain requested; refusing new work");
}

void
Server::run()
{
    startWorkers();
    for (;;) {
        pollCycle();
        if (draining_) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (running_jobs_ == 0 && completions_.empty())
                break;
        }
    }
    stopWorkers();
    // Push queued tail frames (final Results, GridDone, the Draining
    // notice) through full socket buffers: a bounded POLLOUT wait per
    // session, so a stalled client delays exit but cannot hang it.
    for (const auto &session : sessions_) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(500);
        while (!session->dead()) {
            if (!session->flush()) {
                session->markDead();
                break;
            }
            if (!session->wantsWrite())
                break;
            const auto left = std::chrono::duration_cast<
                                  std::chrono::milliseconds>(
                                  deadline -
                                  std::chrono::steady_clock::now())
                                  .count();
            if (left <= 0)
                break;
            pollfd pfd{session->fd(), POLLOUT, 0};
            if (::poll(&pfd, 1, static_cast<int>(left)) <= 0)
                break;
        }
    }
    sessions_.clear();
    session_count_.store(0);
    listener_.reset();
    std::error_code ec;
    fs::remove(config_.socket_path, ec);
    if (config_.verbose)
        inform("aurora_serve: drained; exiting");
}

void
Server::pollCycle()
{
    std::vector<pollfd> fds;
    fds.push_back(pollfd{wake_.readFd(), POLLIN, 0});
    const bool listening = !draining_;
    if (listening)
        fds.push_back(pollfd{listener_.get(), POLLIN, 0});
    const std::size_t base = fds.size();
    // Sessions accepted *after* this poll() have no pollfd slot; the
    // read loop below must not index past this count.
    const std::size_t polled = sessions_.size();
    for (const auto &session : sessions_) {
        short events = POLLIN;
        if (session->wantsWrite())
            events |= POLLOUT;
        fds.push_back(pollfd{session->fd(), events, 0});
    }

    const int rc = ::poll(fds.data(),
                          static_cast<nfds_t>(fds.size()), -1);
    if (rc < 0) {
        if (errno == EINTR)
            return;
        util::raiseError(util::SimErrorCode::BadWire,
                         "poll() failed in the serve loop");
    }

    if (fds[0].revents != 0)
        wake_.drain();
    if (signal_drain_ != 0 || drain_requested_.load())
        beginDrain();
    drainCompletions();
    if (listening && (fds[1].revents & POLLIN) != 0)
        acceptPending();
    for (std::size_t i = 0; i < polled; ++i) {
        Session &session = *sessions_[i];
        if (session.dead())
            continue;
        const short revents = fds[base + i].revents;
        if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0)
            readSession(session);
    }
    for (const auto &session : sessions_)
        if (!session->dead() && !session->flush())
            session->markDead();
    reapDeadSessions();
}

void
Server::acceptPending()
{
    for (;;) {
        util::Fd conn = util::acceptConn(listener_.get());
        if (!conn.valid())
            return;
        sessions_.push_back(
            std::make_unique<Session>(std::move(conn)));
        session_count_.store(sessions_.size());
    }
}

void
Server::readSession(Session &session)
{
    std::string bytes;
    const long n = util::readAvailable(session.fd(), bytes);
    if (n == 0) {
        session.markDead();
        return;
    }
    if (n < 0)
        return;
    session.decoder().feed(bytes);
    std::string payload;
    for (;;) {
        switch (session.decoder().next(payload)) {
          case wire::FrameStatus::Ok:
            handlePayload(session, payload);
            if (session.dead())
                return;
            continue;
          case wire::FrameStatus::NeedMore:
            return;
          case wire::FrameStatus::Corrupt:
            reject(session, "AUR207", util::SimErrorCode::BadWire,
                   "corrupt wire frame (bad magic, length, or CRC)",
                   /*fatal=*/true);
            return;
        }
    }
}

void
Server::handlePayload(Session &session, const std::string &payload)
{
    try {
        switch (wire::peekType(payload)) {
          case wire::MsgType::Hello:
            handleHello(session, payload);
            return;
          case wire::MsgType::Submit:
            handleSubmit(session, payload);
            return;
          case wire::MsgType::Attach:
            handleAttach(session, payload);
            return;
          case wire::MsgType::Cancel:
            handleCancel(session, payload);
            return;
          case wire::MsgType::Status:
            handleStatus(session);
            return;
          case wire::MsgType::Metrics:
            handleMetrics(session, payload);
            return;
          default:
            reject(session, "AUR207", util::SimErrorCode::BadWire,
                   detail::concat(
                       "client sent a server-side message type (",
                       wire::msgTypeName(wire::peekType(payload)),
                       ")"),
                   /*fatal=*/true);
            return;
        }
    } catch (const util::SimError &e) {
        reject(session, "AUR207", util::SimErrorCode::BadWire,
               e.what(), /*fatal=*/true);
    }
}

void
Server::handleHello(Session &session, const std::string &payload)
{
    const wire::HelloMsg hello = wire::decodeHello(payload);
    if (hello.version != wire::PROTOCOL_VERSION) {
        reject(session, "AUR207", util::SimErrorCode::BadWire,
               detail::concat("client speaks protocol version ",
                              hello.version, "; this daemon speaks ",
                              wire::PROTOCOL_VERSION),
               /*fatal=*/true);
        return;
    }
    if (hello.tenant.empty() || session.greeted()) {
        reject(session, "AUR207", util::SimErrorCode::BadWire,
               session.greeted() ? "duplicate Hello"
                                 : "Hello carries no tenant name",
               /*fatal=*/true);
        return;
    }
    session.setTenant(hello.tenant);
    session.queueFrame(wire::encode(
        wire::WelcomeMsg{wire::PROTOCOL_VERSION, draining_}));
}

void
Server::handleSubmit(Session &session, const std::string &payload)
{
    if (!session.greeted()) {
        reject(session, "AUR207", util::SimErrorCode::BadWire,
               "Submit before Hello", /*fatal=*/true);
        return;
    }
    wire::SubmitMsg msg = wire::decodeSubmit(payload);
    {
        const std::lock_guard<std::mutex> mlock(metrics_mutex_);
        metrics_.counter("serve.submits", "Submit frames received")
            .add();
    }

    std::vector<harness::SweepJob> jobs;
    try {
        jobs = buildJobs(msg.jobs);
    } catch (const util::SimError &e) {
        reject(session, "AUR205", util::SimErrorCode::BadConfig,
               e.what());
        return;
    }
    const std::optional<std::uint64_t> base_seed =
        msg.has_base_seed
            ? std::optional<std::uint64_t>(msg.base_seed)
            : std::nullopt;
    const std::uint64_t fp =
        harness::gridFingerprint(jobs, base_seed);

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (grids_.count(fp) != 0) {
            reject(session, "AUR206", util::SimErrorCode::BadConfig,
                   detail::concat(
                       "grid ", spoolFile(fp, ""),
                       " is already resident; Attach to it instead"));
            return;
        }
        const std::optional<AdmitRejection> refusal =
            scheduler_.admit(session.tenant(), jobs.size());
        if (refusal) {
            reject(session, refusal->id, refusal->code,
                   refusal->message);
            return;
        }
    }

    // PR-4 static preflight: a structurally wedged or invalid machine
    // is refused before it can burn a worker's watchdog budget.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::vector<analyze::Diagnostic> diags =
            analyze::lintConfig(jobs[i].machine);
        if (!analyze::hasErrors(diags))
            continue;
        std::string first_id;
        for (const analyze::Diagnostic &d : diags)
            if (d.severity == analyze::Severity::Error) {
                first_id = d.id;
                break;
            }
        reject(session, first_id, util::SimErrorCode::BadConfig,
               detail::concat("job ", i, " (",
                              jobs[i].machine.name,
                              ") failed preflight:\n",
                              analyze::formatDiagnostics(diags)));
        return;
    }

    const ManifestSubmit submission{fp, session.tenant(), std::move(msg)};
    auto grid = makeGrid(submission, std::move(jobs));
    const std::uint64_t trace = grid->trace_id;

    // Durability point: manifest first (flushed), then the journal
    // header. Only after both exist is the client told Accepted —
    // so every acknowledged grid survives SIGKILL.
    try {
        util::RecordFileWriter manifest(spoolFile(fp, ".grid"),
                                        /*truncate=*/true);
        manifest.append(util::codec::encode(submission));
        grid->journal = std::make_unique<harness::JournalWriter>(
            spoolFile(fp, ".ajrn"), fp, grid->jobs.size());
    } catch (const util::SimError &e) {
        reject(session, "AUR203", util::SimErrorCode::Internal,
               detail::concat("spool write failed: ", e.what()));
        return;
    }

    const std::size_t total = grid->jobs.size();
    // The admission stage span: decode through durability point, on
    // the serve track, parented to the grid root.
    {
        obs::Span adm;
        adm.trace_id = trace;
        adm.span_id = obs::stageSpanId(trace, "admission");
        adm.parent_id = obs::rootSpanId(trace);
        adm.name = "admission";
        adm.cat = "admission";
        adm.pid = 0;
        adm.ts_us = 0.0;
        adm.dur_us = grid->span_log.nowUs();
        grid->span_log.add(std::move(adm));
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        scheduler_.admitGrid(grid->tenant, total);
        for (std::size_t i = 0; i < total; ++i)
            scheduler_.enqueue(grid->tenant, SchedUnit{fp, i});
        grids_[fp] = std::move(grid);
    }
    cv_.notify_all();
    flight_.note("grid.accept", {},
                 detail::concat("fp=", fp, " jobs=", total,
                                " tenant=", session.tenant()));

    session.watch(fp);
    session.submitted().push_back(fp);
    session.queueFrame(wire::encode(
        wire::AcceptedMsg{fp, total, 0, /*attached=*/false, trace}));
    if (config_.verbose)
        inform(detail::concat("aurora_serve: accepted grid ",
                              spoolFile(fp, ""), " (", total,
                              " jobs) from tenant '",
                              session.tenant(), "'"));
}

void
Server::handleAttach(Session &session, const std::string &payload)
{
    if (!session.greeted()) {
        reject(session, "AUR207", util::SimErrorCode::BadWire,
               "Attach before Hello", /*fatal=*/true);
        return;
    }
    const wire::AttachMsg msg = wire::decodeAttach(payload);
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = grids_.find(msg.fingerprint);
    if (it == grids_.end() ||
        it->second->tenant != session.tenant()) {
        reject(session, "AUR208", util::SimErrorCode::BadConfig,
               detail::concat("no grid of tenant '", session.tenant(),
                              "' has fingerprint ",
                              msg.fingerprint));
        return;
    }
    Grid &grid = *it->second;
    session.watch(grid.fingerprint);
    session.queueFrame(wire::encode(
        wire::AcceptedMsg{grid.fingerprint, grid.jobs.size(), grid.done,
                          /*attached=*/true, grid.trace_id}));
    // Replay every terminal outcome in job order — byte-identical to
    // what a continuously-connected client received.
    for (std::size_t i = 0; i < grid.jobs.size(); ++i)
        if (grid.state[i] == Grid::JobState::Done)
            session.queueFrame(wire::encode(wire::ResultMsg{
                grid.fingerprint,
                harness::encodeJournalRecord(grid.records[i])}));
    if (grid.complete())
        session.queueFrame(wire::encode(wire::GridDoneMsg{
            grid.fingerprint, grid.ok, grid.failed, grid.timed_out,
            grid.cancelled_jobs, grid.resumed}));
}

void
Server::handleCancel(Session &session, const std::string &payload)
{
    if (!session.greeted()) {
        reject(session, "AUR207", util::SimErrorCode::BadWire,
               "Cancel before Hello", /*fatal=*/true);
        return;
    }
    const wire::CancelMsg msg = wire::decodeCancel(payload);
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = grids_.find(msg.fingerprint);
    if (it == grids_.end() ||
        it->second->tenant != session.tenant()) {
        reject(session, "AUR208", util::SimErrorCode::BadConfig,
               detail::concat("no grid of tenant '", session.tenant(),
                              "' has fingerprint ",
                              msg.fingerprint));
        return;
    }
    Grid &grid = *it->second;
    const std::size_t before = grid.cancelled_jobs;
    if (!grid.complete())
        cancelGrid(grid);
    session.queueFrame(wire::encode(wire::CancelOkMsg{
        grid.fingerprint, grid.cancelled_jobs - before}));
}

void
Server::handleStatus(Session &session)
{
    wire::StatusReportMsg report;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        report.draining = draining_;
        report.grids = grids_.size();
        report.done_grids = done_grids_;
        report.queued_jobs = scheduler_.queuedJobs();
        report.running_jobs = running_jobs_;
        report.done_jobs = done_jobs_;
    }
    session.queueFrame(wire::encode(report));
}

void
Server::handleMetrics(Session &session, const std::string &payload)
{
    if (!session.greeted()) {
        reject(session, "AUR207", util::SimErrorCode::BadWire,
               "Metrics before Hello", /*fatal=*/true);
        return;
    }
    const wire::MetricsMsg msg = wire::decodeMetrics(payload);
    wire::MetricsReportMsg report;
    report.format = msg.format;
    report.body = renderMetrics(msg.format);
    session.queueFrame(wire::encode(report));
}

std::string
Server::renderMetrics(wire::MetricsFormat format)
{
    std::vector<obs::Gauge> gauges;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        gauges.push_back(obs::gauge(
            "serve.queued_jobs", "jobs waiting in the scheduler",
            static_cast<double>(scheduler_.queuedJobs())));
        gauges.push_back(obs::gauge(
            "serve.running_jobs", "jobs executing right now",
            static_cast<double>(running_jobs_)));
        gauges.push_back(obs::gauge(
            "serve.grids_resident", "grids resident in memory",
            static_cast<double>(grids_.size())));
        gauges.push_back(obs::gauge(
            "serve.sessions", "connected client sessions",
            static_cast<double>(session_count_.load())));
        gauges.push_back(obs::gauge("serve.draining",
                                    "1 while the daemon is draining",
                                    draining_ ? 1.0 : 0.0));
        obs::Gauge tenants_gauge;
        tenants_gauge.name = "serve.tenant_inflight";
        tenants_gauge.description =
            "admitted-but-unfinished jobs per tenant";
        tenants_gauge.label_key = "tenant";
        std::set<std::string> tenants;
        for (const auto &[fp, grid] : grids_)
            tenants.insert(grid->tenant);
        for (const std::string &tenant : tenants)
            tenants_gauge.values.push_back(obs::GaugeValue{
                tenant,
                static_cast<double>(scheduler_.tenantJobs(tenant))});
        gauges.push_back(std::move(tenants_gauge));
    }
    const std::lock_guard<std::mutex> mlock(metrics_mutex_);
    return format == wire::MetricsFormat::Json
               ? obs::renderMetricsJson(metrics_, gauges)
               : obs::renderPrometheus(metrics_, gauges);
}

void
Server::reject(Session &session, const std::string &id,
               util::SimErrorCode code, const std::string &message,
               bool fatal)
{
    {
        // metrics_mutex_ is a leaf lock, so this is safe from both
        // the locked (AUR206, admission) and unlocked (preflight,
        // protocol) reject sites.
        const std::lock_guard<std::mutex> mlock(metrics_mutex_);
        metrics_.counter(detail::concat("serve.admission.", id),
                         "rejections by AURxxx verdict")
            .add();
    }
    flight_.note("reject", id, message);
    session.queueFrame(
        wire::encode(wire::RejectedMsg{id, code, message}));
    if (fatal)
        session.markDead();
}

void
Server::drainCompletions()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!completions_.empty()) {
        const auto [fp, index] = completions_.front();
        completions_.pop_front();
        const auto it = grids_.find(fp);
        AURORA_ASSERT(it != grids_.end(),
                      "completion for an unknown grid");
        streamOutcome(*it->second, index);
    }
}

/** Stream one terminal outcome to watchers; mutex_ held. */
void
Server::streamOutcome(Grid &grid, std::size_t index)
{
    ++grid.streamed;
    {
        const std::lock_guard<std::mutex> mlock(metrics_mutex_);
        metrics_
            .counter("serve.results_streamed",
                     "Result frames broadcast to watchers")
            .add();
        if (!grid.first_result_recorded) {
            // Latency is measured from this residency's Grid
            // construction: submit time for live grids, resume time
            // for spool-reloaded ones.
            grid.first_result_recorded = true;
            metrics_
                .histogram("serve.submit_to_first_result_ms",
                           "submit (or resume) to first streamed "
                           "Result, ms",
                           LATENCY_BUCKETS_MS)
                .add(static_cast<std::uint64_t>(
                    grid.timer.seconds() * 1e3));
        }
    }
    broadcast(grid.fingerprint,
              wire::encode(wire::ResultMsg{
                  grid.fingerprint,
                  harness::encodeJournalRecord(grid.records[index])}));
    if (grid.streamed % grid.cadence == 0 ||
        grid.streamed == grid.jobs.size())
        broadcast(grid.fingerprint,
                  wire::encode(wire::ProgressMsg{
                      grid.fingerprint, grid.done, grid.jobs.size(),
                      grid.ok, grid.failed, grid.timed_out,
                      grid.cancelled_jobs, grid.timer.seconds()}));
    if (grid.streamed == grid.jobs.size() && !grid.done_notified)
        gridCompleted(grid);
}

/**
 * Write the grid's spans — admission and the worker pool's job and
 * attempt spans — under the grid root as one Chrome trace next to the grid's spool
 * pair. Diagnostics must never fail the grid, so every failure path
 * warns and returns. mutex_ held.
 */
void
Server::writeGridTrace(Grid &grid)
{
    if (grid.trace_id == 0)
        return;
    const std::string path =
        spoolFile(grid.fingerprint, ".trace.json");
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        warn(detail::concat("cannot write grid trace ", path));
        return;
    }
    const std::vector<obs::Span> spans = grid.span_log.spans();
    obs::writeGridTrace(
        os, spans, grid.trace_id,
        grid.label.empty()
            ? detail::concat("grid ", obs::hexId(grid.trace_id))
            : grid.label,
        /*pid=*/0, grid.span_log.nowUs(), "aurora_serve");
    os.flush();
    if (!os.good()) {
        warn(detail::concat("short write on grid trace ", path));
        return;
    }
    flight_.note("trace.write", {}, path);
    if (config_.verbose)
        inform(detail::concat("aurora_serve: wrote trace ", path,
                              " (", spans.size() + 1, " spans)"));
}

/** Grid reached its terminal state; mutex_ held. */
void
Server::gridCompleted(Grid &grid)
{
    grid.done_notified = true;
    scheduler_.gridFinished(grid.tenant);
    ++done_grids_;
    {
        const std::lock_guard<std::mutex> mlock(metrics_mutex_);
        metrics_
            .counter("serve.grids_done",
                     "grids run to their terminal state")
            .add();
        metrics_
            .histogram("serve.submit_to_grid_done_ms",
                       "submit (or resume) to GridDone, ms",
                       LATENCY_BUCKETS_MS)
            .add(static_cast<std::uint64_t>(grid.timer.seconds() *
                                            1e3));
    }
    flight_.note("grid.done", {},
                 detail::concat("fp=", grid.fingerprint, " ok=",
                                grid.ok, " failed=", grid.failed,
                                " timeout=", grid.timed_out,
                                " cancelled=", grid.cancelled_jobs));
    writeGridTrace(grid);
    broadcast(grid.fingerprint,
              wire::encode(wire::GridDoneMsg{
                  grid.fingerprint, grid.ok, grid.failed,
                  grid.timed_out, grid.cancelled_jobs,
                  grid.resumed}));
    if (config_.verbose)
        inform(detail::concat(
            "aurora_serve: grid ", spoolFile(grid.fingerprint, ""),
            " done (", grid.ok, " ok / ", grid.failed, " failed / ",
            grid.timed_out, " timed out / ", grid.cancelled_jobs,
            " cancelled)"));
}

/** Cancel a grid's queued work; mutex_ held, grid incomplete. */
void
Server::cancelGrid(Grid &grid)
{
    grid.cancelled.store(true);
    markCancelManifest(grid);
    const std::vector<SchedUnit> dropped =
        scheduler_.dropQueued(grid.tenant, grid.fingerprint);
    for (const SchedUnit &unit : dropped)
        finalizeCancelledUnit(grid, unit.job_index);
    // Running jobs finish on their workers (the cancel flag stops
    // further retries); the grid completes when they land.
}

/** Finalize one never-dispatched job as Cancelled; mutex_ held. */
void
Server::finalizeCancelledUnit(Grid &grid, std::size_t job_index)
{
    harness::JournalRecord rec = cancelRecord(grid, job_index);
    grid.journal->append(rec);
    applyRecord(grid, std::move(rec), /*from_journal=*/false);
    scheduler_.jobFinished(grid.tenant);
    streamOutcome(grid, job_index);
}

void
Server::markCancelManifest(Grid &grid)
{
    if (grid.cancel_marked)
        return;
    util::RecordFileWriter manifest(
        spoolFile(grid.fingerprint, ".grid"), /*truncate=*/false);
    manifest.append(util::codec::encode(ManifestCancel{}));
    grid.cancel_marked = true;
}

void
Server::broadcast(std::uint64_t fingerprint,
                  const std::string &payload)
{
    for (const auto &session : sessions_)
        if (!session->dead() && session->isWatching(fingerprint))
            session->queueFrame(payload);
}

void
Server::reapDeadSessions()
{
    for (const auto &session : sessions_)
        if (session->dead()) {
            session->flush(); // best-effort final Rejected/Draining
            sessionClosed(*session);
        }
    sessions_.erase(
        std::remove_if(sessions_.begin(), sessions_.end(),
                       [](const std::unique_ptr<Session> &s) {
                           return s->dead();
                       }),
        sessions_.end());
    session_count_.store(sessions_.size());
}

/**
 * Disconnect policy: grids this session *submitted* with
 * cancel_on_disconnect are cancelled; everything else — other
 * tenants' grids, this tenant's orphan-detached grids — is
 * untouched.
 */
void
Server::sessionClosed(Session &session)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t fp : session.submitted()) {
        const auto it = grids_.find(fp);
        if (it == grids_.end())
            continue;
        Grid &grid = *it->second;
        if (grid.cancel_on_disconnect && !grid.complete() &&
            !grid.cancelled.load())
            cancelGrid(grid);
    }
}

ServerStats
Server::stats()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ServerStats s;
    s.grids = grids_.size();
    s.done_grids = done_grids_;
    s.queued_jobs = scheduler_.queuedJobs();
    s.running_jobs = running_jobs_;
    s.done_jobs = done_jobs_;
    s.sessions = session_count_.load();
    s.draining = draining_;
    return s;
}

} // namespace aurora::serve
