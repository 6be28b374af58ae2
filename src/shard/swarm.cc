#include "swarm.hh"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "core/audit.hh"
#include "core/config_io.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "shardd.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"

namespace aurora::shard
{

namespace
{

/** Beat cadence granted to shards, as a fraction of the lease. */
constexpr std::uint64_t BEATS_PER_LEASE = 4;
/** Units in flight per shard: two keep a shard busy while its next
 *  assignment is in transit; the tail of the grid drains to one. */
constexpr std::size_t UNITS_IN_FLIGHT = 2;
/** Replacement workers per grid, across all slots. */
constexpr std::uint64_t MAX_RESPAWNS = 8;

std::uint64_t
msSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** Close every inherited descriptor above stderr in a fork()ed
 *  worker-to-be. The child must not hold the coordinator's listener
 *  or its siblings' connections: a dead sibling's EOF would otherwise
 *  go undetected for as long as any child keeps the fd alive. */
void
closeInheritedFds()
{
    for (int fd = 3; fd < 1024; ++fd)
        ::close(fd);
}

} // namespace

Swarm::Swarm(SwarmConfig config) : config_(std::move(config))
{
    if (config_.shards == 0)
        util::raiseError(util::SimErrorCode::BadConfig,
                         "swarm: shard count must be at least 1");
    if (config_.spawn == SpawnMode::Exec && config_.shardd_path.empty())
        util::raiseError(util::SimErrorCode::BadConfig,
                         "swarm: exec spawn mode needs the "
                         "aurora_shardd binary path");
    config_.fault_plans.resize(config_.shards);
    std::filesystem::create_directories(config_.journal_dir);
    if (!config_.flight_dir.empty()) {
        std::filesystem::create_directories(config_.flight_dir);
        flight_.spoolTo(config_.flight_dir + "/swarm.flight");
    }
    listener_ = util::listenUnix(config_.socket_path);
    slots_.resize(config_.shards);
}

Swarm::~Swarm()
{
    // Best-effort teardown for the error path; the normal path has
    // already drained via shutdownFleet().
    for (const long pid : children_)
        ::kill(static_cast<pid_t>(pid), SIGKILL);
    for (const long pid : children_)
        ::waitpid(static_cast<pid_t>(pid), nullptr, 0);
}

void
Swarm::spawnWorker(const std::optional<faultinject::ShardFaultPlan> &fault)
{
    ShardWorkerConfig worker;
    worker.socket_path = config_.socket_path;
    worker.journal_dir = config_.journal_dir;
    worker.fault = fault;
    worker.flight_dir = config_.flight_dir;

    // The exec argv is built before fork(): the child only execs.
    std::vector<const char *> argv = {
        "aurora_shardd", "--socket", config_.socket_path.c_str(),
        "--journal-dir", config_.journal_dir.c_str()};
    if (!config_.flight_dir.empty()) {
        argv.push_back("--flight-dir");
        argv.push_back(config_.flight_dir.c_str());
    }
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        util::raiseError(util::SimErrorCode::Internal,
                         "swarm: fork() failed spawning a shard worker");
    if (pid == 0) {
        closeInheritedFds();
        if (config_.spawn == SpawnMode::Exec) {
            if (fault)
                ::setenv(SHARD_FAULT_ENV,
                         faultinject::formatShardFaultPlan(*fault)
                             .c_str(),
                         1);
            ::execv(config_.shardd_path.c_str(),
                    const_cast<char *const *>(argv.data()));
            ::_exit(127); // exec failed; the parent sees the reap
        }
        ::_exit(runShardWorker(worker));
    }
    children_.push_back(pid);
    last_spawn_ = Clock::now();
    flight_.note("shard.spawn", {}, detail::concat("pid=", pid));
}

void
Swarm::grantLease(Loner &&dialer, std::uint64_t pid)
{
    std::uint32_t index = config_.shards;
    for (std::uint32_t i = 0; i < config_.shards; ++i)
        if (!slots_[i].conn.open()) {
            index = i;
            break;
        }
    if (draining_ || index == config_.shards) {
        // A full fleet (or a draining one) needs no extra hands:
        // dismiss the surplus worker cleanly rather than leaving it
        // waiting forever.
        dialer.conn.send(wire::encode(wire::ShutdownMsg{}));
        dialer.conn.flush();
        dialer.conn.close();
        return;
    }

    Slot &slot = slots_[index];
    slot.conn = std::move(dialer.conn);
    slot.epoch = ++next_epoch_;
    slot.last_beat = slot.last_msg = Clock::now();
    slot.assigned.clear();
    slot.pid = static_cast<long>(pid);
    slot.lease_start_us = obsNowUs();
    ++stats_.granted_leases;

    journal_refs_.push_back(
        {slot.epoch, index,
         shardJournalPath(config_.journal_dir, slot.epoch)});

    if (config_.verbose)
        inform(detail::concat("swarm: slot ", index, " leased epoch ",
                              slot.epoch, " to pid ", pid));
    flight_.note("lease.grant", {},
                 detail::concat("slot=", index, " epoch=", slot.epoch,
                                " pid=", pid, " v",
                                wire::SHARD_PROTOCOL_VERSION));
    sendToSlot(index,
               wire::encode(wire::WelcomeMsg{
                   wire::SHARD_PROTOCOL_VERSION, index, slot.epoch,
                   config_.lease_ms,
                   std::max<std::uint64_t>(
                       1, config_.lease_ms / BEATS_PER_LEASE)}));
}

void
Swarm::migrateAssigned(Slot &slot)
{
    // Reverse push_front keeps unit order at the queue head, so
    // migrated work still completes (and journals) lowest-index first.
    std::size_t moved = 0;
    for (auto it = slot.assigned.rbegin(); it != slot.assigned.rend();
         ++it) {
        for (const std::size_t i : *it)
            obsDispatchEnd(jobs_[i], /*committed=*/false, "migrated");
        moved += it->size();
        pending_.push_front(std::move(*it));
    }
    stats_.migrated_jobs += moved;
    if (config_.verbose && moved > 0)
        inform(detail::concat("swarm: migrated ", moved,
                              " job(s) off fenced epoch ", slot.epoch));
    slot.assigned.clear();
}

void
Swarm::fenceSlot(std::uint32_t slot_index, const char *diagnostic,
                 bool keep_connection)
{
    Slot &slot = slots_[slot_index];
    if (slot.epoch == 0)
        return;
    fenced_epochs_.insert(slot.epoch);
    warn(detail::concat("swarm: ", diagnostic, ": fencing slot ",
                        slot_index, " epoch ", slot.epoch,
                        " (pid ", slot.pid, ")"));
    obsLeaseEnd(slot, "fence", diagnostic);
    migrateAssigned(slot);

    if (keep_connection && slot.conn.open()) {
        // Keep the dead incarnation's connection open as a zombie
        // observer: its late Results must be *refused*, not merely
        // unread — AUR304 counts each refusal.
        Loner zombie{std::move(slot.conn), slot.epoch};
        zombie.conn.send(wire::encode(wire::FencedMsg{zombie.epoch}));
        if (zombie.conn.flush())
            loners_.push_back(std::move(zombie));
    }
    slot.conn.close();
    slot.epoch = 0;
    slot.pid = -1;
}

void
Swarm::assignPending()
{
    // Round-robin one unit at a time so a refilled fleet shares the
    // backlog instead of the first slot swallowing it.
    bool progress = true;
    while (!pending_.empty() && progress) {
        progress = false;
        for (std::uint32_t i = 0;
             i < config_.shards && !pending_.empty(); ++i) {
            Slot &slot = slots_[i];
            if (!slot.conn.open() ||
                slot.assigned.size() >= UNITS_IN_FLIGHT)
                continue;
            wire::AssignMsg assign{slot.epoch, {}, trace_id_, policy_};
            for (const std::size_t index : pending_.front()) {
                Job &job = jobs_[index];
                job.assigned_us = obsNowUs();
                job.assigned_epoch = slot.epoch;
                assign.jobs.push_back(job.spec);
            }
            slot.assigned.push_back(std::move(pending_.front()));
            pending_.pop_front();
            sendToSlot(i, wire::encode(assign));
            progress = true;
        }
    }
}

void
Swarm::sendToSlot(std::uint32_t slot_index, const std::string &payload)
{
    util::FramedConn &conn = slots_[slot_index].conn;
    if (!conn.open())
        return;
    conn.send(payload);
    // Opportunistic flush; leftovers wait for POLLOUT. Never a
    // blocking write: a wedged shard that stopped reading must not
    // wedge the coordinator with it.
    if (!conn.flush())
        dropSlot(slot_index, util::ConnStatus::Closed);
}

void
Swarm::dropSlot(std::uint32_t slot_index, util::ConnStatus status)
{
    if (status == util::ConnStatus::Corrupt) {
        ++stats_.protocol_errors;
        fenceSlot(slot_index, "AUR305: corrupt frame from shard",
                  /*keep_connection=*/false);
    } else {
        ++stats_.shard_exits;
        fenceSlot(slot_index, "AUR302: shard connection closed",
                  /*keep_connection=*/false);
    }
}

bool
Swarm::handleSlotMessage(std::uint32_t slot_index,
                         const std::string &payload)
{
    Slot &slot = slots_[slot_index];
    slot.last_msg = Clock::now();
    // A refused message fences the lease but keeps the connection,
    // so whatever the incarnation sends next is refused too.
    const auto refuse = [&](const char *diagnostic) {
        ++stats_.protocol_errors;
        fenceSlot(slot_index, diagnostic, /*keep_connection=*/true);
        return false;
    };
    try {
        switch (wire::peekType(payload)) {
          case wire::MsgType::Beat: {
            const wire::BeatMsg beat = wire::decodeBeat(payload);
            if (beat.slot != slot_index || beat.epoch != slot.epoch)
                return refuse(
                    "AUR305: beat carries a foreign slot/epoch");
            slot.last_beat = Clock::now();
            return true;
          }
          case wire::MsgType::Result: {
            wire::ResultMsg result = wire::decodeResult(payload);
            if (result.slot != slot_index || result.epoch != slot.epoch)
                return refuse(
                    "AUR305: result carries a foreign slot/epoch");
            harness::JournalRecord record;
            try {
                record = harness::decodeJournalRecord(result.record);
            } catch (const util::SimError &) {
                return refuse(
                    "AUR305: result record bytes do not decode");
            }
            const std::uint64_t index = record.job_index;
            const auto unit_at = std::find_if(
                slot.assigned.begin(), slot.assigned.end(),
                [&](const Unit &unit) {
                    return std::find(unit.begin(), unit.end(), index) !=
                           unit.end();
                });
            if (unit_at == slot.assigned.end() || jobs_[index].commit)
                return refuse("AUR305: result for a job this "
                              "incarnation does not hold");
            // Commit point: exactly-once is decided here and only
            // here.
            Job &job = jobs_[index];
            job.commit = CommitRef{index, slot_index, slot.epoch,
                                   std::move(result.record)};
            obsDispatchEnd(job, /*committed=*/true, nullptr);
            std::erase(*unit_at, index);
            if (unit_at->empty())
                slot.assigned.erase(unit_at);
            --open_jobs_;
            ++stats_.committed;
            if (commit_journal_)
                commit_journal_->append(record);
            return true;
          }
          default:
            return refuse(
                "AUR305: unexpected message from a leased shard");
        }
    } catch (const util::SimError &e) {
        ++stats_.protocol_errors;
        warn(detail::concat("swarm: AUR305: ", e.what()));
        fenceSlot(slot_index, "AUR305: undecodable message",
                  /*keep_connection=*/false);
        return false;
    }
}

bool
Swarm::handleLonerMessage(Loner &loner, const std::string &payload)
{
    try {
        const wire::MsgType type = wire::peekType(payload);
        if (loner.epoch == 0) {
            // Not yet welcomed: the only legal opening move is Hello.
            if (type == wire::MsgType::Hello) {
                const wire::HelloMsg hello = wire::decodeHello(payload);
                if (hello.version == wire::SHARD_PROTOCOL_VERSION) {
                    // The connection moves into the slot (or closes).
                    grantLease(std::move(loner), hello.pid);
                    return false;
                }
                warn(detail::concat("swarm: AUR305: dialer speaks "
                                    "protocol v", hello.version,
                                    "; refusing"));
                ++stats_.protocol_errors;
            }
        } else if (type == wire::MsgType::Result) {
            // Fenced zombie traffic. A late Result is the whole point
            // of keeping the connection: refuse it explicitly.
            const wire::ResultMsg result = wire::decodeResult(payload);
            ++stats_.fenced_results;
            warn(detail::concat("swarm: AUR304: refused result under "
                                "fenced epoch ", result.epoch));
            flight_.note("result.refused", "AUR304",
                         detail::concat("epoch=", result.epoch));
            loner.conn.send(wire::encode(wire::FencedMsg{loner.epoch}));
            if (loner.conn.flush())
                return true;
        } else {
            // Beats and anything else from behind the fence are noise.
            return true;
        }
    } catch (const util::SimError &) {
    }
    loner.conn.close();
    return false;
}

void
Swarm::pollOnce(int timeout_ms)
{
    /** A polled connection: a slot's, or a loner's (by index). */
    struct Entry
    {
        bool leased;
        std::size_t index;
    };
    std::vector<struct pollfd> pfds{{listener_.get(), POLLIN, 0}};
    std::vector<Entry> entries{{false, 0}}; // the listener's place
    const auto watch = [&](const util::FramedConn &conn, Entry entry) {
        if (!conn.open())
            return;
        pfds.push_back({conn.fd(),
                        static_cast<short>(conn.wantsWrite()
                                               ? POLLIN | POLLOUT
                                               : POLLIN),
                        0});
        entries.push_back(entry);
    };
    for (std::size_t i = 0; i < slots_.size(); ++i)
        watch(slots_[i].conn, {true, i});
    for (std::size_t i = 0; i < loners_.size(); ++i)
        watch(loners_[i].conn, {false, i});

    if (::poll(pfds.data(), pfds.size(), timeout_ms) < 0)
        return; // EINTR: the main loop re-evaluates and re-polls

    for (std::size_t p = 1; p < pfds.size(); ++p) {
        const bool leased = entries[p].leased;
        const std::size_t i = entries[p].index;
        const auto slot_index = static_cast<std::uint32_t>(i);
        util::FramedConn &conn =
            leased ? slots_[i].conn : loners_[i].conn;
        const short revents = pfds[p].revents;
        if (revents == 0 || !conn.open())
            continue; // idle, or fenced or handed on this cycle
        if ((revents & POLLOUT) != 0 && !conn.flush()) {
            if (leased)
                dropSlot(slot_index, util::ConnStatus::Closed);
            else
                conn.close();
            continue;
        }
        if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;
        const util::ConnStatus status =
            conn.receive([&](const std::string &payload) {
                return leased ? handleSlotMessage(slot_index, payload)
                              : handleLonerMessage(loners_[i], payload);
            });
        if (status == util::ConnStatus::Open)
            continue;
        if (!leased) {
            conn.close();
        } else if (draining_ && status == util::ConnStatus::Closed) {
            // Expected: the worker honoured Shutdown and hung up. Not
            // a fence — its epoch stays clean.
            Slot &slot = slots_[i];
            obsLeaseEnd(slot, "drain", nullptr);
            slot.conn.close();
            slot.epoch = 0;
            slot.pid = -1;
        } else {
            // EOF with a live lease: the shard process is gone
            // (SIGKILL, crash, or clean exit without Shutdown).
            dropSlot(slot_index, status);
        }
    }

    // Compact departed loners, then admit new dialers (push_back
    // last — indices captured above must stay stable).
    std::erase_if(loners_, [](const Loner &l) { return !l.conn.open(); });
    if (pfds[0].revents != 0)
        for (;;) {
            util::Fd conn = util::acceptConn(listener_.get());
            if (!conn.valid())
                break;
            loners_.push_back(
                {util::FramedConn(std::move(conn), wire::SHARD_MAGIC)});
        }
}

void
Swarm::checkLeases()
{
    for (std::uint32_t i = 0; i < config_.shards; ++i) {
        Slot &slot = slots_[i];
        if (!slot.conn.open())
            continue;
        if (msSince(slot.last_beat) <= config_.lease_ms)
            continue;
        ++stats_.lease_expiries;
        // Recent non-beat traffic with no beats is the partition /
        // dropped-heartbeat signature; total silence is a wedge.
        const bool partitioned =
            msSince(slot.last_msg) <= config_.lease_ms;
        fenceSlot(i,
                  partitioned
                      ? "AUR303: heartbeats lost while results flowed"
                      : "AUR301: lease expired (no heartbeat)",
                  /*keep_connection=*/true);
    }
}

void
Swarm::reapChildren()
{
    for (auto it = children_.begin(); it != children_.end();) {
        int status = 0;
        const pid_t r =
            ::waitpid(static_cast<pid_t>(*it), &status, WNOHANG);
        if (r > 0)
            it = children_.erase(it);
        else
            ++it;
    }
}

void
Swarm::shutdownFleet()
{
    draining_ = true;
    for (std::uint32_t i = 0; i < config_.shards; ++i)
        if (slots_[i].conn.open())
            sendToSlot(i, wire::encode(wire::ShutdownMsg{}));
    // Give spawned workers a moment to exit on their own; then the
    // fence becomes literal. Wedged zombies (HangShard) only ever go
    // this way. The drain keeps *polling*: a ZombieAppend shard that
    // wakes during the grace window still gets its late Result
    // refused over the wire (AUR304) instead of dying unheard — the
    // refusal is part of the fencing contract, not best-effort.
    const Clock::time_point t0 = Clock::now();
    while (!children_.empty() && msSince(t0) < 2000) {
        pollOnce(20);
        reapChildren();
    }
    // One last service pass: a zombie reaped just above sent its final
    // frame *before* exiting (send happens-before exit), so the bytes
    // are already in our socket buffer — the refusal must not be lost
    // to the poll/reap race.
    pollOnce(0);
    for (const long pid : children_)
        ::kill(static_cast<pid_t>(pid), SIGKILL);
    for (const long pid : children_)
        ::waitpid(static_cast<pid_t>(pid), nullptr, 0);
    children_.clear();
    for (Slot &slot : slots_) {
        obsLeaseEnd(slot, "shutdown", nullptr);
        slot.conn.close();
        slot.epoch = 0;
        slot.assigned.clear();
    }
    loners_.clear();
}

void
Swarm::obsSpan(std::uint64_t span_id, std::uint64_t parent_id,
               std::string name, std::string cat, double ts_us,
               double dur_us, bool instant, std::string error)
{
    if (span_log_ == nullptr || trace_id_ == 0)
        return;
    obs::Span span;
    span.trace_id = trace_id_;
    span.span_id = span_id;
    span.parent_id = parent_id;
    span.name = std::move(name);
    span.cat = std::move(cat);
    span.pid = 1; // coordinator track
    span.ts_us = ts_us;
    span.dur_us = dur_us;
    span.instant = instant;
    span.error = std::move(error);
    span_log_->add(std::move(span));
}

void
Swarm::obsLeaseEnd(const Slot &slot, const char *how,
                   const char *diagnostic)
{
    if (slot.epoch == 0)
        return;
    std::string code;
    if (diagnostic != nullptr &&
        std::strncmp(diagnostic, "AUR", 3) == 0 &&
        std::strlen(diagnostic) >= 6)
        code.assign(diagnostic, 6);
    flight_.note(detail::concat("lease.", how), code,
                 detail::concat("epoch=", slot.epoch,
                                " pid=", slot.pid));
    stats_.lease_ms_total += static_cast<std::uint64_t>(
        (obsNowUs() - slot.lease_start_us) / 1000.0);
    obsSpan(obs::leaseSpanId(trace_id_, slot.epoch),
            obs::stageSpanId(trace_id_, "swarm"),
            detail::concat("lease e", slot.epoch), "lease",
            slot.lease_start_us, obsNowUs() - slot.lease_start_us,
            /*instant=*/false,
            diagnostic != nullptr ? std::string(diagnostic)
                                  : std::string());
}

void
Swarm::obsDispatchEnd(Job &job, bool committed, const char *error)
{
    if (job.assigned_us <= 0.0)
        return;
    if (span_log_ != nullptr && trace_id_ != 0) {
        obs::Span span;
        span.trace_id = trace_id_;
        span.span_id = obs::dispatchSpanId(trace_id_, job.spec.job_index,
                                           job.assigned_epoch);
        span.parent_id = obs::leaseSpanId(trace_id_, job.assigned_epoch);
        span.name = detail::concat("dispatch j", job.spec.job_index);
        span.cat = "dispatch";
        span.pid = 1;
        span.ts_us = job.assigned_us;
        span.dur_us = obsNowUs() - job.assigned_us;
        span.job = job.spec.job_index;
        span.has_job = true;
        if (!committed)
            span.error = error != nullptr ? error : "abandoned";
        span_log_->add(std::move(span));
    }
    job.assigned_us = 0.0;
    job.assigned_epoch = 0;
}

std::vector<harness::SweepOutcome>
Swarm::runGrid(const std::vector<harness::SweepJob> &grid,
               const GridOptions &options)
{
    AURORA_ASSERT(!ran_, "a Swarm runs one grid; build one per grid");
    ran_ = true;
    if (options.preflight)
        harness::preflightGrid(grid);
    trace_id_ = options.trace_id;
    span_log_ = options.span_log;
    const double grid_start_us = obsNowUs();

    const std::size_t n = grid.size();
    std::vector<harness::SweepOutcome> outcomes(n);

    // Commit journal: the coordinator's own durable record, in the
    // standard harness journal format so `--resume` and every existing
    // journal tool read it unchanged.
    const std::uint64_t fingerprint =
        harness::gridFingerprint(grid, options.base_seed);
    if (!options.journal.empty())
        commit_journal_ = harness::openGridJournal(
            options.journal, options.resume, fingerprint, outcomes);
    flight_.note("grid.start", {},
                 detail::concat("fingerprint=", fingerprint,
                                " jobs=", n));

    // Deal every job not replayed as the units a SweepRunner over one
    // thread per shard would run.
    policy_ = {options.base_seed.has_value(),
               options.base_seed.value_or(0), options.deadline_ms,
               options.retries, options.backoff_ms};
    jobs_.resize(n);
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        if (outcomes[i].resumed) {
            ++stats_.resumed;
            continue;
        }
        pending.push_back(i);
        const harness::SweepJob &job = grid[i];
        jobs_[i].spec = {i, core::describe(job.machine), job.profile.name,
                         job.profile.seed, job.instructions};
    }
    open_jobs_ = pending.size();
    for (auto &unit : harness::planUnits(grid, pending, options.base_seed,
                                         config_.shards))
        pending_.push_back(std::move(unit));

    // A fully-resumed grid needs no fleet at all.
    if (open_jobs_ > 0)
        for (std::uint32_t i = 0; i < config_.shards; ++i)
            spawnWorker(config_.fault_plans[i]);

    while (open_jobs_ > 0) {
        assignPending();
        pollOnce(20);
        checkLeases();
        reapChildren();

        const bool any_live =
            std::any_of(slots_.begin(), slots_.end(),
                        [](const Slot &s) { return s.conn.open(); });
        const bool any_dialer =
            std::any_of(loners_.begin(), loners_.end(),
                        [](const Loner &l) { return l.epoch == 0; });
        const bool need = !any_live || !pending_.empty();
        const bool vacant =
            std::any_of(slots_.begin(), slots_.end(),
                        [](const Slot &s) { return !s.conn.open(); });
        if (need && vacant && !any_dialer &&
            stats_.respawns < MAX_RESPAWNS &&
            msSince(last_spawn_) >= 250) {
            ++stats_.respawns;
            flight_.note("shard.respawn", {},
                         detail::concat(stats_.respawns, "/",
                                        MAX_RESPAWNS));
            spawnWorker(std::nullopt);
            if (config_.verbose)
                inform(detail::concat("swarm: respawned a worker (",
                                      stats_.respawns, "/",
                                      MAX_RESPAWNS, " used)"));
        }
        if (!any_live && !any_dialer && children_.empty() &&
            stats_.respawns >= MAX_RESPAWNS)
            util::raiseError(util::SimErrorCode::Internal,
                             "swarm: shard fleet lost with ",
                             open_jobs_,
                             " job(s) open and the respawn budget (",
                             MAX_RESPAWNS, ") exhausted");
    }

    shutdownFleet();

    const double merge_start_us = obsNowUs();
    // The merge only sees journal files that exist: an incarnation
    // fenced before it even opened its journal left nothing behind,
    // which is fine exactly when nothing committed under its epoch.
    std::vector<ShardJournalRef> journals;
    journals.reserve(journal_refs_.size());
    std::vector<CommitRef> commits;
    commits.reserve(stats_.committed);
    for (const Job &job : jobs_)
        if (job.commit)
            commits.push_back(*job.commit);
    for (const ShardJournalRef &ref : journal_refs_) {
        if (std::filesystem::exists(ref.path)) {
            journals.push_back(ref);
            continue;
        }
        const bool committed_under =
            std::any_of(commits.begin(), commits.end(),
                        [&](const CommitRef &c) {
                            return c.epoch == ref.epoch;
                        });
        if (committed_under)
            util::raiseError(
                util::SimErrorCode::BadJournal,
                "shard journal merge: AUR306: epoch ", ref.epoch,
                " committed results but its journal ", ref.path,
                " does not exist");
    }
    std::vector<harness::JournalRecord> merged =
        mergeShardJournals(journals, commits, fenced_epochs_);

    // Cross-check each record against the grid itself: the hash and
    // seed a serial SweepRunner would have journaled for this index.
    for (std::size_t k = 0; k < merged.size(); ++k) {
        harness::JournalRecord &rec = merged[k];
        const auto i = static_cast<std::size_t>(rec.job_index);
        const harness::SweepJob &job = grid[i];
        const std::uint64_t mh = harness::machineHash(job.machine);
        const std::uint64_t seed =
            harness::jobSeed(job, options.base_seed);
        if (rec.machine_hash != mh || rec.seed != seed)
            util::raiseError(
                util::SimErrorCode::BadJournal,
                "shard journal merge: AUR306: job ", i,
                " ran with machine hash ", rec.machine_hash,
                " seed ", rec.seed, " but the grid demands hash ", mh,
                " seed ", seed);
        if (core::auditEnabled() && rec.outcome.ok)
            core::auditRun(rec.outcome.result);
        outcomes[i] = std::move(rec.outcome);
    }

    obsSpan(obs::stageSpanId(trace_id_, "merge"),
            obs::stageSpanId(trace_id_, "swarm"), "merge", "merge",
            merge_start_us, obsNowUs() - merge_start_us);
    flight_.note("merge", {},
                 detail::concat("records=", merged.size(), " journals=",
                                journals.size(), " fenced=",
                                fenced_epochs_.size()));

    // Fold each incarnation's crash-durable span file into the grid's
    // log: parentage is by derived ids, so this is pure concatenation.
    // A SIGKILLed shard's torn tail is dropped by loadSpanFile; a file
    // corrupted beyond that is reported, not fatal — spans are
    // diagnostics, never part of the result path.
    if (span_log_ != nullptr && trace_id_ != 0 &&
        !config_.flight_dir.empty()) {
        for (const ShardJournalRef &ref : journal_refs_) {
            const std::string spans_path =
                config_.flight_dir + "/shard-e" +
                std::to_string(ref.epoch) + ".spans";
            if (!std::filesystem::exists(spans_path))
                continue;
            try {
                // Every coordinator counts epochs from 1, so two runs
                // sharing a flight directory (two aurora_swarm runs
                // with one --journal-dir) reuse span-file names: an
                // incarnation that died before reopening its file
                // leaves the older grid's spans under its name, and
                // only this grid's trace folds in.
                std::vector<obs::Span> spans =
                    obs::loadSpanFile(spans_path).spans;
                spans.erase(std::remove_if(
                                spans.begin(), spans.end(),
                                [&](const obs::Span &s) {
                                    return s.trace_id != trace_id_;
                                }),
                            spans.end());
                span_log_->addAll(spans);
            } catch (const util::SimError &e) {
                warn(detail::concat("swarm: ignoring bad span file '",
                                    spans_path, "': ", e.what()));
            }
        }
    }
    // The fabric's own span: the grid-root span belongs to whoever
    // minted the trace (the aurora_swarm CLI, or the caller that set
    // GridOptions::trace_id).
    obsSpan(obs::stageSpanId(trace_id_, "swarm"),
            obs::rootSpanId(trace_id_), "swarm", "swarm",
            grid_start_us, obsNowUs() - grid_start_us);
    flight_.note("grid.done", {},
                 detail::concat("committed=", stats_.committed,
                                " migrated=", stats_.migrated_jobs,
                                " refused=", stats_.fenced_results));

    if (config_.verbose)
        inform(detail::concat(
            "swarm: grid done: ", stats_.committed, " committed, ",
            stats_.resumed, " resumed, ", stats_.migrated_jobs,
            " migrated, ", stats_.fenced_results,
            " zombie result(s) refused, ", fenced_epochs_.size(),
            " epoch(s) fenced"));
    return outcomes;
}

} // namespace aurora::shard
