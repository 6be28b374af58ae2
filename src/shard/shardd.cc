#include "shardd.hh"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
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
 * Execute one assigned job through harness::runJob, so its journal
 * record is bit-identical to what a serial SweepRunner run of the
 * same grid would write for this index. @p spans (observation only)
 * receives its attempt spans.
 */
harness::JournalRecord
runAssignedJob(const wire::JobSpec &spec, obs::SpanLog *spans)
{
    harness::SweepOptions policy;
    if (spec.has_base_seed)
        policy.base_seed = spec.base_seed;
    policy.retries = spec.retries;
    policy.deadline_ms = spec.deadline_ms;
    policy.backoff_ms = spec.backoff_ms;
    policy.span_log = spans;
    return harness::runJob(buildJob(spec),
                           static_cast<std::size_t>(spec.job_index),
                           std::move(policy));
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
    // Dial the coordinator, retrying while it comes up: external
    // drills start workers and coordinator in parallel.
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

    wire::FrameDecoder decoder;
    wire::WelcomeMsg welcome;
    try {
        wire::sendFrame(fd.get(),
                        wire::encode(wire::HelloMsg{
                            wire::SHARD_PROTOCOL_VERSION,
                            static_cast<std::uint64_t>(::getpid())}));
        const std::optional<std::string> payload =
            util::recvFrame(fd.get(), decoder, 10'000);
        if (!payload)
            return SHARD_EXIT_ERROR;
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

    // Local durability first: every completed job lands here before
    // its Result frame leaves the process.
    std::optional<ShardJournalWriter> journal;
    try {
        journal.emplace(shardJournalPath(config.journal_dir,
                                         welcome.epoch),
                        welcome.slot, welcome.epoch);
    } catch (const util::SimError &e) {
        warn(detail::concat("shard worker: cannot open journal: ",
                            e.what()));
        return SHARD_EXIT_ERROR;
    }

    std::deque<wire::JobSpec> queue;
    std::uint64_t done = 0;
    std::uint64_t trace_id = 0; // from Assign
    bool beats_enabled = true;
    bool fault_armed = config.fault.has_value();
    Clock::time_point last_beat = Clock::now();

    const auto sendBeat = [&] {
        wire::sendFrame(fd.get(),
                        wire::encode(wire::BeatMsg{welcome.slot,
                                                   welcome.epoch,
                                                   done}));
        last_beat = Clock::now();
    };

    /** Run the front job, persist locally, then offer upstream.
     *  Append-before-send is the durable-before-visible rule the
     *  merge's byte-equality cross-check verifies. */
    const auto runFrontJob = [&] {
        const wire::JobSpec spec = queue.front();
        queue.pop_front();
        // Attempt spans parent to the coordinator's dispatch span
        // for this ticket — both sides derive the same id from
        // (trace, ticket, epoch), so no ids cross the wire.
        obs::SpanLog job_spans(obs::TraceContext{
            trace_id, static_cast<std::uint32_t>(100 + welcome.epoch),
            welcome.epoch,
            obs::dispatchSpanId(trace_id, spec.ticket, welcome.epoch)});
        const bool tracing = spans != nullptr && trace_id != 0;
        const harness::JournalRecord rec =
            runAssignedJob(spec, tracing ? &job_spans : nullptr);
        const std::string bytes = harness::encodeJournalRecord(rec);
        journal->append({welcome.epoch, spec.ticket, bytes});
        if (tracing)
            for (const obs::Span &span : job_spans.spans())
                spans->append(span);
        wire::sendFrame(fd.get(),
                        wire::encode(wire::ResultMsg{
                            welcome.slot, welcome.epoch, spec.ticket,
                            bytes}));
        ++done;
        flight.note("job.done", {},
                    detail::concat("ticket=", spec.ticket, " job=",
                                   spec.job_index));
    };

    try {
        sendBeat();
        for (;;) {
            // Pull anything the kernel already holds for us into the
            // decoder: assignments race the handshake read, and the
            // idle poll below never runs while work is queued.
            {
                struct pollfd pfd = {fd.get(), POLLIN, 0};
                if (::poll(&pfd, 1, 0) > 0 &&
                    (pfd.revents & (POLLIN | POLLHUP | POLLERR)) !=
                        0) {
                    std::string chunk;
                    const long n =
                        util::readAvailable(fd.get(), chunk);
                    if (n > 0)
                        decoder.feed(chunk);
                    else if (n == 0)
                        return SHARD_EXIT_ERROR;
                }
            }

            // Drain every frame already buffered in the decoder
            // BEFORE the fault check and BEFORE sleeping in poll():
            // the handshake's recvFrame() may have pulled the first
            // Assign into the buffer along with Welcome, and poll()
            // cannot see buffered bytes.
            std::string payload;
            for (;;) {
                const util::FrameStatus status = decoder.next(payload);
                if (status == util::FrameStatus::NeedMore)
                    break;
                if (status == util::FrameStatus::Corrupt) {
                    warn("shard worker: corrupt frame from "
                         "coordinator");
                    return SHARD_EXIT_ERROR;
                }
                switch (wire::peekType(payload)) {
                  case wire::MsgType::Assign: {
                    wire::AssignMsg assign =
                        wire::decodeAssign(payload);
                    if (assign.epoch != welcome.epoch)
                        return SHARD_EXIT_ERROR;
                    if (assign.trace_id != 0)
                        trace_id = assign.trace_id;
                    for (wire::JobSpec &job : assign.jobs)
                        queue.push_back(std::move(job));
                    break;
                  }
                  case wire::MsgType::Fenced:
                    // The precise AUR30x reason lives in the
                    // coordinator's flight file; this side only knows
                    // its lease died.
                    flight.note("fenced", {},
                                detail::concat("epoch=",
                                               welcome.epoch));
                    return SHARD_EXIT_FENCED;
                  case wire::MsgType::Shutdown:
                    flight.note("shutdown", {},
                                detail::concat("done=", done));
                    return SHARD_EXIT_OK;
                  default:
                    warn(detail::concat(
                        "shard worker: unexpected ",
                        wire::msgTypeName(wire::peekType(payload)),
                        " message"));
                    return SHARD_EXIT_ERROR;
                }
            }

            // Scripted sabotage fires once, after `after_jobs`
            // completions (see faultinject::ShardFault).
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
                    // an external drill's orphan cannot linger.
                    sleepMs(welcome.lease_ms * 20);
                    return SHARD_EXIT_FENCED;
                  case ShardFault::DropHeartbeats:
                    // One-way partition: keep working, go silent.
                    beats_enabled = false;
                    break;
                  case ShardFault::ZombieAppend: {
                    // Go dark past the lease so the coordinator
                    // fences this epoch and migrates the queue...
                    sleepMs(welcome.lease_ms * 3);
                    // ...then wake up and push one more result under
                    // the stale epoch. The local append lands (in
                    // this epoch's own journal file — it can damage
                    // nothing live) and the Result must be refused.
                    if (!queue.empty())
                        runFrontJob();
                    return SHARD_EXIT_FENCED;
                  }
                }
            }

            if (beats_enabled && msSince(last_beat) >= welcome.beat_ms)
                sendBeat();

            if (!queue.empty()) {
                runFrontJob();
                continue; // re-drain and re-beat between jobs
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
            struct pollfd pfd = {fd.get(), POLLIN, 0};
            ::poll(&pfd, 1, static_cast<int>(wait_ms));
            if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
                std::string chunk;
                const long n = util::readAvailable(fd.get(), chunk);
                if (n > 0)
                    decoder.feed(chunk);
                else if (n == 0)
                    return SHARD_EXIT_ERROR; // coordinator vanished
            }
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
