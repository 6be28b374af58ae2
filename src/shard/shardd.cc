#include "shardd.hh"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <utility>

#include "core/config_io.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/flight.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "shard_journal.hh"
#include "shard_wire.hh"
#include "trace/spec_profiles.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"

namespace aurora::shard
{

namespace
{

using Clock = std::chrono::steady_clock;
using faultinject::ShardFault;

std::uint64_t
msSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - t0)
            .count());
}

/** Rehydrate one wire JobSpec into the SweepJob the grid meant. */
harness::SweepJob
buildJob(const wire::JobSpec &spec)
{
    harness::SweepJob job;
    job.machine = core::parseMachineSpec(spec.machine_spec);
    job.profile = trace::profileByName(spec.profile_name);
    job.profile.seed = spec.profile_seed;
    job.instructions = spec.instructions;
    return job;
}

/**
 * Execute one assigned unit through harness::runJob, so each member's
 * journal record is bit-identical to what a serial SweepRunner run of
 * the same grid would write for its index. @p spans (observation
 * only) receives the attempt spans.
 */
std::vector<harness::JournalRecord>
runAssignedUnit(const wire::AssignMsg &unit, obs::SpanLog *spans)
{
    std::vector<harness::SweepJob> jobs;
    std::vector<std::size_t> indices;
    for (const wire::JobSpec &spec : unit.jobs) {
        jobs.push_back(buildJob(spec));
        indices.push_back(static_cast<std::size_t>(spec.job_index));
    }
    harness::SweepOptions policy;
    if (unit.policy.has_base_seed)
        policy.base_seed = unit.policy.base_seed;
    policy.retries = unit.policy.retries;
    policy.deadline_ms = unit.policy.deadline_ms;
    policy.backoff_ms = unit.policy.backoff_ms;
    policy.span_log = spans;
    return harness::runJob(jobs, indices, std::move(policy));
}

/** Sleep in interruptible 50 ms slices (keeps a wedged/zombie shard
 *  killable and bounds drill wall time). */
void
sleepMs(std::uint64_t ms)
{
    const Clock::time_point t0 = Clock::now();
    while (msSince(t0) < ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<std::uint64_t>(50, ms - msSince(t0))));
}

} // namespace

std::string
shardJournalPath(const std::string &journal_dir, std::uint64_t epoch)
{
    return journal_dir + "/shard-e" + std::to_string(epoch) + ".ajrn";
}

int
runShardWorker(const ShardWorkerConfig &config)
{
    // Dial the coordinator, retrying while its socket comes up.
    util::Fd fd;
    {
        const Clock::time_point t0 = Clock::now();
        for (;;) {
            try {
                fd = util::connectUnix(config.socket_path);
                break;
            } catch (const util::SimError &) {
                if (msSince(t0) >= config.connect_timeout_ms) {
                    warn(detail::concat("shard worker: no coordinator "
                                        "at ", config.socket_path,
                                        " after ",
                                        config.connect_timeout_ms,
                                        " ms"));
                    return SHARD_EXIT_ERROR;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        }
    }
    // Sends stay blocking (sendFrame waits out a full socket); only
    // the reads of the main loop below are non-blocking.
    util::FramedConn conn(std::move(fd), wire::SHARD_MAGIC);

    wire::WelcomeMsg welcome;
    try {
        wire::sendFrame(conn.fd(),
                        wire::encode(wire::HelloMsg{
                            wire::SHARD_PROTOCOL_VERSION,
                            static_cast<std::uint64_t>(::getpid())}));
        const std::optional<std::string> payload =
            util::recvFrame(conn.fd(), conn.decoder(), 10'000);
        if (!payload)
            return SHARD_EXIT_ERROR;
        // A full (or draining) fleet dismisses a surplus worker.
        if (wire::peekType(*payload) == wire::MsgType::Shutdown)
            return SHARD_EXIT_OK;
        welcome = wire::decodeWelcome(*payload);
    } catch (const util::SimError &e) {
        warn(detail::concat("shard worker: handshake failed: ",
                            e.what()));
        return SHARD_EXIT_ERROR;
    }
    if (welcome.version != wire::SHARD_PROTOCOL_VERSION) {
        warn(detail::concat("shard worker: coordinator speaks "
                            "protocol v", welcome.version,
                            ", this worker v",
                            wire::SHARD_PROTOCOL_VERSION));
        return SHARD_EXIT_ERROR;
    }

    // Observability sinks, keyed by this incarnation's epoch. The
    // flight file is write-through (one write() per event), so a
    // SIGKILL mid-grid still leaves every prior event durable for the
    // coordinator-side postmortem reader.
    obs::FlightRecorder flight;
    std::unique_ptr<obs::SpanFileWriter> spans;
    if (!config.flight_dir.empty()) {
        try {
            std::filesystem::create_directories(config.flight_dir);
            const std::string stem = config.flight_dir + "/shard-e" +
                                     std::to_string(welcome.epoch);
            flight.spoolTo(stem + ".flight");
            spans = std::make_unique<obs::SpanFileWriter>(stem +
                                                          ".spans");
        } catch (const util::SimError &e) {
            warn(detail::concat("shard worker: cannot open flight "
                                "files: ", e.what()));
            return SHARD_EXIT_ERROR;
        }
    }
    flight.note("welcome", {},
                detail::concat("slot=", welcome.slot, " epoch=",
                               welcome.epoch, " v", welcome.version));

    // Local durability first: every completed job's record lands here
    // before its Result frame leaves the process.
    std::optional<util::RecordFileWriter> journal;
    try {
        journal.emplace(openShardJournal(
            shardJournalPath(config.journal_dir, welcome.epoch),
            welcome.slot, welcome.epoch));
    } catch (const util::SimError &e) {
        warn(detail::concat("shard worker: cannot open journal: ",
                            e.what()));
        return SHARD_EXIT_ERROR;
    }

    std::deque<wire::AssignMsg> units;   // one unit per Assign
    std::deque<wire::ResultMsg> results; // simulated, unsent
    std::uint64_t done = 0;
    bool beats_enabled = true;
    bool fault_armed = config.fault.has_value();
    Clock::time_point last_beat = Clock::now();

    const auto sendBeat = [&] {
        wire::sendFrame(conn.fd(),
                        wire::encode(wire::BeatMsg{welcome.slot,
                                                   welcome.epoch,
                                                   done}));
        last_beat = Clock::now();
    };

    /** Simulate the front unit in lockstep and queue one Result per
     *  member. The lease is renewed from a second thread while the
     *  unit runs; it is joined before any Result is written, so the
     *  socket has one writer at a time. */
    const auto runFrontUnit = [&] {
        const wire::AssignMsg unit = std::move(units.front());
        units.pop_front();
        const std::uint64_t trace_id = unit.trace_id;
        // Attempt spans parent to the coordinator's dispatch span for
        // their job — both sides derive the same id from (trace, grid
        // index, epoch), so no ids cross the wire.
        const auto dispatch = [&](const wire::JobSpec &spec) {
            return obs::dispatchSpanId(trace_id, spec.job_index,
                                       welcome.epoch);
        };
        obs::SpanLog unit_spans(obs::TraceContext{
            trace_id, static_cast<std::uint32_t>(100 + welcome.epoch),
            welcome.epoch, dispatch(unit.jobs.front())});
        const bool tracing = spans != nullptr && trace_id != 0;
        std::vector<harness::JournalRecord> records;
        std::exception_ptr beat_error;
        {
            std::jthread beater;
            if (beats_enabled)
                beater = std::jthread([&](std::stop_token stop) {
                    std::mutex mutex;
                    std::condition_variable_any wake;
                    std::unique_lock<std::mutex> lock(mutex);
                    try {
                        while (!wake.wait_for(
                            lock, stop,
                            std::chrono::milliseconds(welcome.beat_ms),
                            [&] { return stop.stop_requested(); }))
                            sendBeat();
                    } catch (...) {
                        beat_error = std::current_exception();
                    }
                });
            records = runAssignedUnit(unit, tracing ? &unit_spans
                                                    : nullptr);
        }
        if (beat_error)
            std::rethrow_exception(beat_error);
        const std::vector<obs::Span> attempts = unit_spans.spans();
        std::string jobs;
        for (std::size_t k = 0; k < unit.jobs.size(); ++k) {
            const wire::JobSpec &spec = unit.jobs[k];
            for (obs::Span span : attempts)
                if (span.job == spec.job_index) {
                    span.parent_id = dispatch(spec);
                    spans->append(span);
                }
            results.push_back({welcome.slot, welcome.epoch,
                               harness::encodeJournalRecord(records[k])});
            jobs += detail::concat(k ? "," : "", spec.job_index);
        }
        flight.note("unit.done", {}, "jobs=" + jobs);
    };

    /** Persist the front Result locally, then offer it upstream.
     *  Append-before-send is the durable-before-visible rule the
     *  merge's byte-equality cross-check verifies. */
    const auto sendFrontResult = [&] {
        const wire::ResultMsg result = std::move(results.front());
        results.pop_front();
        journal->append(result.record);
        wire::sendFrame(conn.fd(), wire::encode(result));
        ++done;
    };

    /** One coordinator message: queue an Assign, or set the exit
     *  code and stop reading. */
    std::optional<int> exit_code;
    const auto handle = [&](const std::string &payload) {
        switch (wire::peekType(payload)) {
          case wire::MsgType::Assign: {
            wire::AssignMsg assign = wire::decodeAssign(payload);
            if (assign.epoch != welcome.epoch)
                exit_code = SHARD_EXIT_ERROR;
            else if (!assign.jobs.empty())
                units.push_back(std::move(assign));
            break;
          }
          case wire::MsgType::Fenced:
            // The precise AUR30x reason lives in the coordinator's
            // flight file; this side only knows its lease died.
            flight.note("fenced", {},
                        detail::concat("epoch=", welcome.epoch));
            exit_code = SHARD_EXIT_FENCED;
            break;
          case wire::MsgType::Shutdown:
            flight.note("shutdown", {}, detail::concat("done=", done));
            exit_code = SHARD_EXIT_OK;
            break;
          default:
            warn(detail::concat(
                "shard worker: unexpected ",
                wire::msgTypeName(wire::peekType(payload)),
                " message"));
            exit_code = SHARD_EXIT_ERROR;
            break;
        }
        return !exit_code;
    };

    try {
        sendBeat();
        for (;;) {
            // Read what the kernel already holds and handle every
            // buffered frame BEFORE the fault check and BEFORE
            // sleeping in poll(): the handshake's recvFrame() may have
            // pulled the first Assign into the decoder along with
            // Welcome, and poll() cannot see decoded bytes.
            switch (conn.receive(handle)) {
              case util::ConnStatus::Open:
                break;
              case util::ConnStatus::Closed:
                return SHARD_EXIT_ERROR; // coordinator vanished
              case util::ConnStatus::Corrupt:
                warn("shard worker: corrupt frame from coordinator");
                return SHARD_EXIT_ERROR;
            }
            if (exit_code)
                return *exit_code;

            // Scripted sabotage fires once, after `after_jobs`
            // Results (see faultinject::ShardFault) — mid-unit when
            // the count falls inside one, never while a unit runs.
            if (fault_armed && done >= config.fault->after_jobs) {
                fault_armed = false;
                flight.note("fault",
                            {},
                            faultinject::formatShardFaultPlan(
                                *config.fault));
                switch (config.fault->fault) {
                  case ShardFault::KillShard:
                    // The SIGKILL shape: no unwind, no flush beyond
                    // what append() already pushed to the OS. The
                    // flight note above is already durable — every
                    // note() is its own write().
                    ::_exit(SHARD_EXIT_KILLED);
                  case ShardFault::HangShard:
                    // Wedge: no beats, no reads, no work. Bounded so
                    // an orphan cannot linger.
                    sleepMs(welcome.lease_ms * 20);
                    return SHARD_EXIT_FENCED;
                  case ShardFault::DropHeartbeats:
                    // One-way partition: keep working, go silent.
                    beats_enabled = false;
                    break;
                  case ShardFault::ZombieAppend: {
                    // Go dark past the lease so the coordinator
                    // fences this epoch and migrates the queue...
                    beats_enabled = false;
                    sleepMs(welcome.lease_ms * 3);
                    // ...then wake up and push one more result under
                    // the stale epoch. The local append lands (in
                    // this epoch's own journal file — it can damage
                    // nothing live) and the Result must be refused.
                    if (results.empty() && !units.empty())
                        runFrontUnit();
                    if (!results.empty())
                        sendFrontResult();
                    return SHARD_EXIT_FENCED;
                  }
                }
            }

            if (beats_enabled && msSince(last_beat) >= welcome.beat_ms)
                sendBeat();

            if (!results.empty()) {
                sendFrontResult();
                continue; // re-drain, re-check faults between Results
            }
            if (!units.empty()) {
                runFrontUnit();
                continue;
            }

            // Idle: wait for traffic until the next beat is due.
            std::uint64_t wait_ms = 50;
            if (beats_enabled) {
                const std::uint64_t since = msSince(last_beat);
                wait_ms = since >= welcome.beat_ms
                              ? 0
                              : std::min<std::uint64_t>(
                                    50, welcome.beat_ms - since);
            }
            struct pollfd pfd = {conn.fd(), POLLIN, 0};
            ::poll(&pfd, 1, static_cast<int>(wait_ms));
        }
    } catch (const util::SimError &e) {
        // A send to a coordinator that already fenced us (and closed
        // the connection) lands here; so do transport errors.
        warn(detail::concat("shard worker (slot ", welcome.slot,
                            ", epoch ", welcome.epoch, "): ",
                            e.what()));
        flight.note("error", {}, e.what());
        return SHARD_EXIT_ERROR;
    }
}

} // namespace aurora::shard
