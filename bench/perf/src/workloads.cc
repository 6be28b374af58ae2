/**
 * @file
 * The five workloads, and one repetition of each as run by a fresh
 * child process (`aurora_perf rep ...`). A repetition prints one Rep
 * line on stdout; the parent (parent.cc) turns reps into metrics.
 *
 * Modes:
 *  - timed: the workload's own path with nothing attached; a
 *    single-threaded one samples host speed between its jobs, outside
 *    the timed region;
 *  - traced: the own path with spans (grid_swarm, serve_burst);
 *  - layers: the in-process split into trace::collect and
 *    Processor::run, a pass with a host-time observer, and the
 *    RunSampler overhead pairs;
 *  - reference: an in-process SweepRunner over referenceJobs(), the
 *    digest the own path must reproduce;
 *  - setup: the own path's set-up only, timed as in a timed
 *    repetition, for the setup_s samples;
 *  - probe: the host-speed probe (probe.cc) on the fleet's CPUs, run
 *    between the repetitions of a multi-threaded workload. It runs in
 *    a process of its own because a process the parent spawns inherits
 *    the parent's peak RSS.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "core/audit.hh"
#include "core/config_io.hh"
#include "core/simulator.hh"
#include "harness/journal.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "perf.hh"
#include "serve/wire.hh"
#include "shard/swarm.hh"
#include "telemetry/sampler.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "util/record_io.hh"
#include "util/socket.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

extern char **environ;

namespace aurora::perf
{

namespace fs = std::filesystem;
namespace wire = serve::wire;

/** Timed rounds per host probe: about 0.1 s on each fleet CPU. */
constexpr int PROBE_ROUNDS = 12;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "issue_bound", "stall_bound", "grid_pool", "grid_swarm",
        "serve_burst"};
    return names;
}

unsigned
fleetWidth()
{
    return std::clamp(onlineCpus(), 1u, 4u);
}

std::vector<int>
fleetCpus()
{
    std::vector<int> cpus = allowedCpus();
    cpus.resize(std::min<std::size_t>(cpus.size(), fleetWidth()));
    return cpus;
}

Workload
findWorkload(const std::string &name, bool smoke)
{
    Workload w;
    w.name = name;
    if (name == "issue_bound") {
        w.insts = 2'000'000;
    } else if (name == "stall_bound") {
        w.insts = 500'000;
    } else if (name == "grid_pool" || name == "grid_swarm") {
        w.path = name == "grid_pool" ? Path::Pool : Path::Swarm;
        w.workers = fleetWidth();
        w.insts = 500'000;
    } else if (name == "serve_burst") {
        w.path = Path::Serve;
        w.workers = fleetWidth();
        w.clients = fleetWidth();
        w.grids_per_client = 10;
        w.insts = 100'000;
    } else {
        util::raiseError(util::SimErrorCode::BadConfig, "unknown workload '",
                         name,
                         "' (known: issue_bound, stall_bound, grid_pool, "
                         "grid_swarm, serve_burst)");
    }
    if (smoke)
        w.insts /= 50;
    return w;
}

namespace
{

/** Workload seed of the profile or grid named @p name. */
std::uint64_t
mixSeed(std::uint64_t seed, const std::string &name)
{
    return obs::mix64(seed ^ util::fnv1a64(name));
}

std::vector<trace::WorkloadProfile>
seeded(std::vector<trace::WorkloadProfile> suite, std::uint64_t seed)
{
    for (trace::WorkloadProfile &p : suite)
        p.seed = mixSeed(seed, p.name);
    return suite;
}

/**
 * The workload's own grid. Profile seeds come from the benchmark seed
 * and SweepOptions::base_seed stays unset, so one trace is shared by
 * every machine of a grid (the paper's paired comparison).
 */
std::vector<harness::SweepJob>
ownGrid(const Workload &w, std::uint64_t seed)
{
    const auto ints = seeded(trace::integerSuite(), seed);
    std::vector<harness::SweepJob> grid;
    const auto row = [&](const core::MachineConfig &m,
                         const std::vector<trace::WorkloadProfile> &suite) {
        for (const trace::WorkloadProfile &p : suite)
            grid.push_back({m, p, w.insts});
    };
    if (w.name == "issue_bound") {
        row(core::largeModel().withLatency(5), ints);
    } else if (w.name == "stall_bound") {
        auto all = ints;
        const auto fp = seeded(trace::floatSuite(), seed);
        all.insert(all.end(), fp.begin(), fp.end());
        row(core::smallModel().withLatency(100), all);
    } else {
        // The Figure 4 study grid.
        for (const core::MachineConfig &model : core::studyModels())
            for (const unsigned issue : {1u, 2u})
                for (const Cycle latency : {Cycle{17}, Cycle{35}})
                    row(model.withIssueWidth(issue).withLatency(latency),
                        ints);
    }
    return grid;
}

/** Base seed of serve_burst grid @p g of client @p c: every
 *  submission has its own fingerprint. */
std::uint64_t
serveBaseSeed(std::uint64_t seed, unsigned c, unsigned g)
{
    return obs::mix64(mixSeed(seed, "serve_burst") ^
                      ((std::uint64_t{c} << 32) | g));
}

/** Machine of serve_burst grid (@p c, @p g), as the daemon parses it. */
core::MachineConfig
serveMachine(unsigned c, unsigned g)
{
    const auto models = core::studyModels();
    return core::parseMachineSpec(
        core::describe(models[(c + g) % models.size()]));
}

/** The six serve_burst grids checked against an in-process run. */
std::vector<std::pair<unsigned, unsigned>>
serveSample(const Workload &w)
{
    std::vector<std::pair<unsigned, unsigned>> sample;
    for (unsigned g = 0; g < w.grids_per_client; ++g)
        for (unsigned c = 0; c < w.clients && sample.size() < 6; ++c)
            sample.emplace_back(c, g);
    return sample;
}

} // namespace

std::vector<harness::SweepJob>
referenceJobs(const Workload &w, std::uint64_t seed)
{
    if (w.path != Path::Serve)
        return ownGrid(w, seed);
    std::vector<harness::SweepJob> jobs;
    for (const auto &[c, g] : serveSample(w)) {
        const core::MachineConfig machine = serveMachine(c, g);
        const std::uint64_t base = serveBaseSeed(seed, c, g);
        for (const trace::WorkloadProfile &p : trace::integerSuite()) {
            trace::WorkloadProfile profile = trace::profileByName(p.name);
            profile.seed = harness::deriveJobSeed(
                base, harness::machineHash(machine), profile.name);
            jobs.push_back({machine, profile, w.insts});
        }
    }
    return jobs;
}

namespace
{

/**
 * Folds job outcomes into a Rep: work done, the stats_digest (FNV-1a
 * over the bit-exact RunResult serialization, in job order), and the
 * exact per-layer counts. Every result is audited first.
 */
class Tally
{
  public:
    /** @p name and @p seed identify the job's trace (reuse_frac). */
    void
    add(const std::string &name, std::uint64_t seed,
        const harness::SweepOutcome &out)
    {
        ++attempted_;
        if (!out.ok) {
            ++failed_;
            note(out.error);
            digest_ = util::fnv1a64("failed", digest_);
            return;
        }
        try {
            core::auditRun(out.result);
        } catch (const util::SimError &e) {
            ++failed_;
            note(e.what());
            digest_ = util::fnv1a64("audit", digest_);
            return;
        }
        const core::RunResult &r = out.result;
        digest_ = util::fnv1a64(harness::runResultBytes(r), digest_);
        const auto insts = static_cast<double>(r.instructions);
        const auto cycles = static_cast<double>(r.cycles);
        insts_ += insts;
        cycles_ += cycles;
        for (std::size_t i = 0; i < core::NUM_STALL_CAUSES; ++i)
            stalls_[i] += static_cast<double>(r.stalls[i]);
        dual_ += static_cast<double>(r.issue_width_cycles[2]);
        icache_misses_ += static_cast<double>(r.ledger.icache_misses);
        dcache_misses_ += static_cast<double>(r.ledger.dcache_misses);
        mshr_allocs_ += static_cast<double>(r.ledger.mshr_allocations);
        fp_dispatched_ += static_cast<double>(r.fp_dispatched);
        rob_occ_ += r.rob_occupancy.mean * cycles;
        mshr_occ_ += r.mshr_occupancy.mean * cycles;
        instq_p95_ = std::max(
            instq_p95_, static_cast<double>(r.fp_instq_occupancy.p95));
        if (!seen_.emplace(name, seed, r.instructions).second)
            reused_ += insts;
        busy_ += out.seconds;
        job_s_.push_back(out.seconds);
    }

    std::string
    digest() const
    {
        return obs::hexId(digest_);
    }

    /** Record totals, the digest and the exact counts in @p rep. */
    void
    finish(Rep &rep) const
    {
        rep.num["attempted"] = attempted_;
        rep.num["failed"] = failed_;
        rep.num["insts"] = insts_;
        rep.num["busy_s"] = busy_;
        rep.list["job_s"] = job_s_;
        rep.text["digest"] = digest();
        if (!first_error_.empty())
            rep.text["job_error"] = first_error_;
        const auto per = [](double x, double base) {
            return base > 0 ? x / base : 0.0;
        };
        auto &x = rep.num;
        x["exact:core.cpi"] = per(cycles_, insts_);
        for (std::size_t i = 0; i < core::NUM_STALL_CAUSES; ++i)
            x["exact:core.stall_cpi." +
              std::string(telemetry::stallSlug(
                  static_cast<core::StallCause>(i)))] =
                per(stalls_[i], insts_);
        x["exact:trace.reuse_frac"] = per(reused_, insts_);
        x["exact:mem.icache_misses_per_kinst"] =
            per(1000 * icache_misses_, insts_);
        x["exact:mem.dcache_misses_per_kinst"] =
            per(1000 * dcache_misses_, insts_);
        x["exact:mem.mshr_allocs_per_kinst"] =
            per(1000 * mshr_allocs_, insts_);
        x["exact:mem.mshr_occ_mean"] = per(mshr_occ_, cycles_);
        x["exact:ipu.dual_issue_frac"] = per(dual_, cycles_);
        x["exact:ipu.rob_occ_mean"] = per(rob_occ_, cycles_);
        x["exact:fpu.dispatched_per_kinst"] =
            per(1000 * fp_dispatched_, insts_);
        x["exact:fpu.instq_occ_p95"] = instq_p95_;
    }

  private:
    void
    note(const std::string &error)
    {
        if (first_error_.empty())
            first_error_ = error;
    }

    std::uint64_t digest_ = 0xcbf29ce484222325ull;
    double attempted_ = 0, failed_ = 0, insts_ = 0, cycles_ = 0;
    std::array<double, core::NUM_STALL_CAUSES> stalls_{};
    double dual_ = 0, icache_misses_ = 0, dcache_misses_ = 0;
    double mshr_allocs_ = 0, fp_dispatched_ = 0;
    double rob_occ_ = 0, mshr_occ_ = 0, instq_p95_ = 0;
    double reused_ = 0, busy_ = 0;
    std::vector<double> job_s_;
    std::set<std::tuple<std::string, std::uint64_t, Count>> seen_;
    std::string first_error_;
};

/** Explicit options, so no AURORA_* variable changes what is timed. */
harness::SweepOptions
sweepOptions(unsigned workers)
{
    harness::SweepOptions opt;
    opt.workers = workers;
    opt.preflight = false; // the rep admits the grid itself, in set-up
    opt.model_advice = false;
    opt.retries = 0;
    opt.deadline_ms = 0;
    opt.backoff_ms = 0;
    return opt;
}

/** Thread-safe span collector written as `aurora.spans.v1` NDJSON. */
class SpanSink
{
  public:
    explicit SpanSink(const RepArgs &args) : args_(args) {}

    /** Record [@p start_us, @p end_us]; returns the new span's id. */
    std::uint64_t
    add(std::string name, std::string cat, std::uint64_t parent,
        double start_us, double end_us)
    {
        obs::Span span;
        span.trace_id = args_.trace_id;
        span.span_id = obs::mix64(args_.parent_span ^ ++next_);
        span.parent_id = parent ? parent : args_.parent_span;
        span.name = std::move(name);
        span.cat = std::move(cat);
        span.pid = args_.track;
        span.tid = threadIndex();
        span.ts_us = start_us;
        span.dur_us = end_us - start_us;
        const std::uint64_t id = span.span_id;
        log_.add(std::move(span));
        return id;
    }

    void
    addForeign(const std::vector<obs::Span> &spans)
    {
        log_.addAll(spans);
    }

    void
    write() const
    {
        if (args_.spans.empty())
            return;
        std::ofstream os(args_.spans, std::ios::binary);
        for (const obs::Span &span : log_.spans())
            os << obs::spanJsonLine(span) << '\n';
        if (!os)
            util::raiseError(util::SimErrorCode::BadTrace,
                             "cannot write span file '", args_.spans, "'");
    }

  private:
    static std::uint32_t
    threadIndex()
    {
        static std::atomic<std::uint32_t> next{0};
        thread_local const std::uint32_t index = next++;
        return index;
    }

    const RepArgs &args_;
    std::atomic<std::uint64_t> next_{0};
    obs::SpanLog log_;
};

// ---- grid_pool, issue_bound, stall_bound, and references ------------

/** preflightGrid, as SweepRunner and Swarm admit a grid (set-up). */
void
admitGrid(const std::vector<harness::SweepJob> &grid, Rep &rep)
{
    const double start = nowUs();
    harness::preflightGrid(grid);
    rep.num["preflight_ms"] = (nowUs() - start) / 1e3;
}

/**
 * Set-up ends here: record it. Returns true when this is a set-up-only
 * repetition, which stops before any timed work.
 */
bool
setupDone(const RepArgs &args, Rep &rep)
{
    rep.num["setup_s"] = (nowUs() - args.spawn_us) / 1e6;
    rep.ok = args.mode == "setup";
    return rep.ok;
}

/** Fold a grid's outcomes and its timed region [t0, t1] into @p rep. */
void
recordGrid(const std::vector<harness::SweepJob> &grid,
           const std::vector<harness::SweepOutcome> &outcomes, double t0,
           double t1, unsigned workers, Rep &rep)
{
    Tally tally;
    for (std::size_t i = 0; i < grid.size(); ++i)
        tally.add(grid[i].profile.name, grid[i].profile.seed, outcomes[i]);
    tally.finish(rep);
    rep.num["wall_s"] = (t1 - t0) / 1e6;
    rep.num["workers"] = workers;
}

/**
 * Host speed sampled before a single-threaded grid and after each of
 * its jobs, on the job's own thread and CPU (README.md, "Host speed").
 * Sampling time is kept out of the timed region.
 */
class JobProbes
{
  public:
    /** Take a sample; the job that just ended ran since the last one. */
    void
    sample()
    {
        const double start = nowUs();
        const double ns = probe_.sample(PROBE_ROUNDS_PER_JOB);
        const double end = nowUs();
        if (last_end_ > 0) {
            const double ran = start - last_end_;
            weighted_ += ran * std::sqrt(last_ns_ * ns);
            ran_ += ran;
        }
        probing_ += end - start;
        last_end_ = end;
        last_ns_ = ns;
    }

    /** Host ns per probe instruction, weighted by job time. */
    double hostNs() const { return ran_ > 0 ? weighted_ / ran_ : 0.0; }

    /** Microseconds spent sampling. */
    double probingUs() const { return probing_; }

  private:
    static constexpr int PROBE_ROUNDS_PER_JOB = 2;
    HostProbe probe_;
    double last_end_ = 0, last_ns_ = 0;
    double weighted_ = 0, ran_ = 0, probing_ = 0;
};

Rep
poolRep(const std::vector<harness::SweepJob> &grid, unsigned workers,
        const RepArgs &args)
{
    Rep rep;
    admitGrid(grid, rep);
    harness::SweepOptions options = sweepOptions(workers);
    std::optional<JobProbes> probes;
    const bool probing = workers == 1 && args.mode == "timed";
    if (probing) {
        options.progress_every = 1;
        options.on_progress = [&](const harness::SweepProgress &) {
            probes->sample();
        };
    }
    harness::SweepRunner runner(options);
    if (setupDone(args, rep))
        return rep;
    if (probing) {
        probes.emplace();
        probes->sample();
    }
    const double probed = probing ? probes->probingUs() : 0.0;
    const double t0 = nowUs();
    const auto outcomes = runner.runOutcomes(grid);
    const double t1 =
        nowUs() - (probing ? probes->probingUs() - probed : 0.0);
    recordGrid(grid, outcomes, t0, t1, workers, rep);
    if (probes)
        rep.num["host_ns_per_inst"] = probes->hostNs();
    rep.ok = true;
    return rep;
}

// ---- grid_swarm ------------------------------------------------------

Rep
swarmRep(const Workload &w, const std::vector<harness::SweepJob> &grid,
         const RepArgs &args, SpanSink *spans)
{
    Rep rep;
    admitGrid(grid, rep);
    shard::SwarmConfig config;
    config.socket_path = "swarm.sock";
    config.journal_dir = "journal";
    config.shards = w.workers;
    config.spawn = shard::SpawnMode::Fork;
    config.fault_plans.resize(w.workers);
    obs::SpanLog log;
    shard::GridOptions options;
    options.preflight = false;
    if (spans) {
        config.flight_dir = "journal/obs";
        options.trace_id = obs::traceIdForGrid(
            harness::gridFingerprint(grid, std::nullopt));
        options.span_log = &log;
    }
    // The coordinator's span clock starts at construction.
    const double clock_base = nowUs();
    shard::Swarm swarm(config);
    if (setupDone(args, rep))
        return rep;
    const double t0 = nowUs();
    const auto outcomes = swarm.runGrid(grid, options);
    const double t1 = nowUs();
    recordGrid(grid, outcomes, t0, t1, w.workers, rep);
    const shard::SwarmStats &stats = swarm.stats();
    rep.num["exact:shard.leases"] =
        static_cast<double>(stats.granted_leases);
    rep.num["exact:shard.respawns"] = static_cast<double>(stats.respawns);
    rep.num["exact:shard.migrated"] =
        static_cast<double>(stats.migrated_jobs);
    rep.num["exact:shard.protocol_errors"] =
        static_cast<double>(stats.protocol_errors);

    if (spans) {
        std::vector<obs::Span> fleet = log.spans();
        double swarm_start = 0, first_lease = -1;
        std::map<std::uint64_t, double> dispatch, attempt;
        for (obs::Span &s : fleet) {
            if (s.cat == "swarm")
                swarm_start = s.ts_us;
            if (s.cat == "lease" &&
                (first_lease < 0 || s.ts_us < first_lease))
                first_lease = s.ts_us;
            if (s.cat == "merge")
                rep.num["shard.merge_ms"] = s.dur_us / 1e3;
            if (s.has_job && s.error.empty() && s.cat == "dispatch")
                dispatch[s.job] = s.dur_us;
            if (s.has_job && s.error.empty() && s.cat == "attempt")
                attempt[s.job] = s.dur_us;
            // One trace per benchmark run; shard processes keep their
            // own clocks, the coordinator's is rebased onto this one.
            s.trace_id = args.trace_id;
            if (s.pid == 1)
                s.ts_us += clock_base;
        }
        rep.num["shard.spawn_ms"] =
            first_lease >= 0 ? (first_lease - swarm_start) / 1e3 : 0.0;
        for (const auto &[job, dur] : dispatch)
            if (attempt.count(job))
                rep.list["shard.dispatch_overhead_ms"].push_back(
                    (dur - attempt[job]) / 1e3);
        // Hang the fabric's grid root under this rep's span.
        obs::Span root;
        root.trace_id = args.trace_id;
        root.span_id = obs::rootSpanId(options.trace_id);
        root.parent_id = args.parent_span;
        root.name = "swarm grid";
        root.cat = "grid";
        root.pid = 1;
        root.ts_us = t0;
        root.dur_us = t1 - t0;
        fleet.push_back(std::move(root));
        spans->addForeign(fleet);
    }
    rep.ok = true;
    return rep;
}

// ---- serve_burst -----------------------------------------------------

/** A spawned aurora_serve, SIGKILLed and reaped if never stopped. */
class Daemon
{
  public:
    explicit Daemon(unsigned workers)
    {
        const std::string workers_arg = std::to_string(workers);
        const char *argv[] = {"aurora_serve", "--socket", "serve.sock",
                              "--spool", "spool", "--workers",
                              workers_arg.c_str(), "--quiet", nullptr};
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        // Keep the parent's result pipe out of the daemon.
        posix_spawn_file_actions_addopen(&actions, 1, "/dev/null",
                                         O_WRONLY, 0);
        const int rc = ::posix_spawn(&pid_, AURORA_PERF_SERVE_BIN,
                                     &actions, nullptr,
                                     const_cast<char *const *>(argv),
                                     environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            util::raiseError(util::SimErrorCode::Internal,
                             "cannot spawn " AURORA_PERF_SERVE_BIN ": ",
                             std::strerror(rc));
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** SIGTERM drain; true when the daemon exited 0. */
    bool
    stop()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        const pid_t rc = ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return rc > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
};

constexpr std::uint64_t RECV_TIMEOUT_MS = 60'000;

/** One closed-loop tenant connection. */
struct Client
{
    util::Fd fd;
    wire::FrameDecoder decoder;

    wire::MsgType
    recv(std::string &payload)
    {
        auto frame = wire::recvFrame(fd.get(), decoder, RECV_TIMEOUT_MS);
        if (!frame)
            util::raiseError(util::SimErrorCode::BadWire,
                             "aurora_serve closed the connection");
        payload = std::move(*frame);
        return wire::peekType(payload);
    }

    /** Dial (retrying while the daemon starts) and say Hello. */
    void
    connect(const std::string &tenant)
    {
        const double give_up = nowUs() + 30e6;
        while (true) {
            try {
                fd = util::connectUnix("serve.sock");
                break;
            } catch (const util::SimError &) {
                if (nowUs() > give_up)
                    throw;
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
        wire::HelloMsg hello;
        hello.tenant = tenant;
        wire::sendFrame(fd.get(), wire::encode(hello));
        std::string payload;
        if (recv(payload) != wire::MsgType::Welcome)
            util::raiseError(util::SimErrorCode::BadWire,
                             "aurora_serve refused the handshake");
        (void)wire::decodeWelcome(payload);
    }
};

/** Client-side timeline and results of one submitted grid. */
struct GridRun
{
    double submit = 0, accepted = 0, first = 0, done = 0;
    std::vector<double> gaps_ms;
    bool rejected = false;
    bool ok = false;
    std::map<std::uint64_t, harness::JournalRecord> records;
};

GridRun
submitGrid(Client &client, const Workload &w, std::uint64_t seed,
           unsigned c, unsigned g)
{
    const std::string machine = core::describe(serveMachine(c, g));
    wire::SubmitMsg submit;
    submit.label = "perf c" + std::to_string(c) + " g" + std::to_string(g);
    submit.has_base_seed = true;
    submit.base_seed = serveBaseSeed(seed, c, g);
    for (const trace::WorkloadProfile &p : trace::integerSuite())
        submit.jobs.push_back({machine, p.name, w.insts});

    GridRun run;
    run.submit = nowUs();
    wire::sendFrame(client.fd.get(), wire::encode(submit));
    std::string payload;
    if (client.recv(payload) == wire::MsgType::Rejected) {
        run.rejected = true;
        return run;
    }
    const std::uint64_t fp = wire::decodeAccepted(payload).fingerprint;
    run.accepted = nowUs();
    double last = run.accepted;
    while (true) {
        const wire::MsgType type = client.recv(payload);
        const double now = nowUs();
        if (type == wire::MsgType::Result) {
            wire::ResultMsg msg = wire::decodeResult(payload);
            if (msg.fingerprint != fp)
                continue;
            harness::JournalRecord rec =
                harness::decodeJournalRecord(msg.record);
            if (run.records.empty())
                run.first = now;
            else
                run.gaps_ms.push_back((now - last) / 1e3);
            last = now;
            run.records.emplace(rec.job_index, std::move(rec));
        } else if (type == wire::MsgType::GridDone) {
            const wire::GridDoneMsg msg = wire::decodeGridDone(payload);
            if (msg.fingerprint != fp)
                continue;
            run.done = now;
            run.ok = msg.failed == 0 && msg.timed_out == 0 &&
                     msg.cancelled == 0 &&
                     run.records.size() == submit.jobs.size();
            return run;
        } else if (type == wire::MsgType::Rejected ||
                   type == wire::MsgType::Draining) {
            util::raiseError(util::SimErrorCode::BadWire,
                             "aurora_serve abandoned grid ", submit.label);
        }
    }
}

Rep
serveRep(const Workload &w, const RepArgs &args, SpanSink *spans)
{
    Rep rep;
    Daemon daemon(w.workers);
    std::vector<Client> clients(w.clients);
    clients[0].connect("c0");
    if (setupDone(args, rep)) {
        clients.clear();
        if (!daemon.stop())
            util::raiseError(util::SimErrorCode::Internal,
                             "aurora_serve did not drain cleanly on SIGTERM");
        return rep;
    }
    for (unsigned c = 1; c < w.clients; ++c)
        clients[c].connect("c" + std::to_string(c));

    // Each client first runs one warm-up grid (excluded), then all
    // start their timed grids together.
    std::vector<std::vector<GridRun>> runs(w.clients);
    std::vector<std::string> errors(w.clients);
    double t0 = 0;
    std::barrier start(static_cast<std::ptrdiff_t>(w.clients),
                       [&t0]() noexcept { t0 = nowUs(); });
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < w.clients; ++c)
        threads.emplace_back([&, c] {
            try {
                (void)submitGrid(clients[c], w, args.seed, c,
                                 w.grids_per_client + c);
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
            start.arrive_and_wait();
            try {
                for (unsigned g = 0; errors[c].empty() &&
                                     g < w.grids_per_client;
                     ++g)
                    runs[c].push_back(
                        submitGrid(clients[c], w, args.seed, c, g));
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
        });
    for (std::thread &t : threads)
        t.join();
    const double t1 = nowUs();
    clients.clear();
    const bool clean_exit = daemon.stop();
    for (const std::string &e : errors)
        if (!e.empty())
            util::raiseError(util::SimErrorCode::BadWire, e);

    // Every result, decoded through the journal codec, in (client,
    // grid, job) order; the sample grids separately.
    Tally tally, sample;
    const auto suite = trace::integerSuite();
    const auto sample_ids = serveSample(w);
    double grids = 0, failed = 0, rejected = 0;
    for (unsigned c = 0; c < w.clients; ++c)
        for (unsigned g = 0; g < runs[c].size(); ++g) {
            const GridRun &run = runs[c][g];
            ++grids;
            if (run.rejected) {
                ++rejected;
                ++failed;
                continue;
            }
            bool grid_ok = run.ok;
            for (const auto &[index, rec] : run.records) {
                tally.add(suite.at(index).name, rec.seed, rec.outcome);
                grid_ok = grid_ok && rec.outcome.ok;
            }
            failed += grid_ok ? 0 : 1;
            rep.list["serve.grid_latency_ms"].push_back(
                (run.done - run.submit) / 1e3);
            rep.list["serve.accept_ms"].push_back(
                (run.accepted - run.submit) / 1e3);
            rep.list["serve.first_result_ms"].push_back(
                (run.first - run.submit) / 1e3);
            auto &gaps = rep.list["serve.result_gap_ms"];
            gaps.insert(gaps.end(), run.gaps_ms.begin(), run.gaps_ms.end());
            if (spans) {
                const std::uint64_t id = spans->add(
                    "grid c" + std::to_string(c) + "/" + std::to_string(g),
                    "grid", 0, run.submit, run.done);
                spans->add("accept", "accept", id, run.submit,
                           run.accepted);
                spans->add("stream", "stream", id, run.accepted, run.done);
            }
        }
    for (const auto &[c, g] : sample_ids)
        if (g < runs[c].size())
            for (const auto &[index, rec] : runs[c][g].records)
                sample.add(suite.at(index).name, rec.seed, rec.outcome);
    tally.finish(rep);
    rep.text["sample_digest"] = sample.digest();
    rep.num["attempted"] = grids;
    rep.num["failed"] = failed;
    rep.num["serve.rejected"] = rejected;
    rep.num["wall_s"] = (t1 - t0) / 1e6;
    rep.num["workers"] = w.workers;
    if (!clean_exit)
        util::raiseError(util::SimErrorCode::Internal,
                         "aurora_serve did not drain cleanly on SIGTERM");
    rep.ok = true;
    return rep;
}

// ---- layers: the in-process split ------------------------------------

std::uint64_t
hostTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(nowUs() * 1e3);
#endif
}

/**
 * Charges the host time between consecutive cycle ends to the kind of
 * the cycle that just ended: issue, one stall cause, or drain tail.
 * Idle cycles (neither an issue nor a retirement) are the cycles event
 * skipping could jump over; they overlap the stall and tail kinds.
 */
class CycleClock : public core::PipelineObserver
{
  public:
    static constexpr std::size_t ISSUE = core::NUM_STALL_CAUSES;
    static constexpr std::size_t TAIL = ISSUE + 1;
    static constexpr std::size_t IDLE = TAIL + 1;
    static constexpr std::size_t KINDS = IDLE + 1;

    void start() { last_ = hostTicks(); }

    void
    onIssue(Cycle, const trace::Inst &, unsigned) override
    {
        issued_ = true;
    }

    void
    onStall(Cycle, core::StallCause cause) override
    {
        kind_ = static_cast<std::size_t>(cause);
    }

    void onRetire(Cycle, unsigned) override { retired_ = true; }

    void
    onCycleEnd(Cycle, const core::OccupancySample &) override
    {
        const std::uint64_t now = hostTicks();
        const std::size_t kind = issued_ ? ISSUE : kind_;
        const auto spent = static_cast<double>(now - last_);
        ticks[kind] += spent;
        cycles[kind] += 1;
        if (!issued_ && !retired_) {
            ticks[IDLE] += spent;
            cycles[IDLE] += 1;
        }
        last_ = now;
        issued_ = retired_ = false;
        kind_ = TAIL;
    }

    std::array<double, KINDS> ticks{};
    std::array<double, KINDS> cycles{};

  private:
    std::uint64_t last_ = 0;
    bool issued_ = false;
    bool retired_ = false;
    std::size_t kind_ = TAIL;
};

std::string
kindName(std::size_t kind)
{
    if (kind == CycleClock::ISSUE)
        return "issue";
    if (kind == CycleClock::TAIL)
        return "tail";
    if (kind == CycleClock::IDLE)
        return "idle";
    return "stall." + std::string(telemetry::stallSlug(
                          static_cast<core::StallCause>(kind)));
}

Rep
layersRep(const Workload &w, const RepArgs &args, SpanSink &spans)
{
    Rep rep;
    const std::vector<harness::SweepJob> jobs =
        referenceJobs(w, args.seed);

    // Pass 1: materialize each trace, then run the core over it.
    std::atomic<std::uint64_t> synth_insts{0};
    std::vector<std::function<core::RunResult()>> split;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        split.push_back([&, i] {
            const harness::SweepJob &job = jobs[i];
            const double t0 = nowUs();
            trace::SyntheticWorkload workload(job.profile);
            std::vector<trace::Inst> insts =
                trace::collect(workload, job.instructions);
            synth_insts += insts.size();
            const double t1 = nowUs();
            trace::VectorTraceSource source(std::move(insts));
            core::Processor cpu(job.machine, source);
            core::RunResult result = cpu.run();
            result.benchmark = job.profile.name;
            const double t2 = nowUs();
            const std::uint64_t id = spans.add(
                job.profile.name + "@" + job.machine.name, "job", 0, t0, t2);
            spans.add("trace.collect", "trace.collect", id, t0, t1);
            spans.add("core.run", "core.run", id, t1, t2);
            return result;
        });
    harness::SweepRunner runner(sweepOptions(w.workers));
    const double t0 = nowUs();
    const auto outcomes = runner.runTaskOutcomes(split);
    rep.num["wall_s"] = (nowUs() - t0) / 1e6;
    Tally tally;
    double cycles = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        tally.add(jobs[i].profile.name, jobs[i].profile.seed, outcomes[i]);
        cycles += static_cast<double>(outcomes[i].result.cycles);
    }
    tally.finish(rep);
    rep.num["synth_insts"] = static_cast<double>(synth_insts.load());
    rep.num["core_cycles"] = cycles;

    // Pass 2: the same runs with the host-time observer attached.
    std::mutex merge;
    CycleClock total;
    std::vector<std::function<core::RunResult()>> observed;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        observed.push_back([&, i] {
            const harness::SweepJob &job = jobs[i];
            trace::SyntheticWorkload workload(job.profile);
            trace::VectorTraceSource source(
                trace::collect(workload, job.instructions));
            core::Processor cpu(job.machine, source);
            CycleClock clock;
            cpu.setObserver(&clock);
            const double start = nowUs();
            clock.start();
            core::RunResult result = cpu.run();
            spans.add(job.profile.name + "@" + job.machine.name,
                      "core.observed", 0, start, nowUs());
            result.benchmark = job.profile.name;
            const std::lock_guard<std::mutex> lock(merge);
            for (std::size_t k = 0; k < CycleClock::KINDS; ++k) {
                total.ticks[k] += clock.ticks[k];
                total.cycles[k] += clock.cycles[k];
            }
            return result;
        });
    const auto observed_outcomes = runner.runTaskOutcomes(observed);
    Tally observed_tally;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        observed_tally.add(jobs[i].profile.name, jobs[i].profile.seed,
                           observed_outcomes[i]);
    rep.text["observed_digest"] = observed_tally.digest();
    double all_ticks = 0, all_cycles = 0;
    for (std::size_t k = 0; k < CycleClock::IDLE; ++k) {
        all_ticks += total.ticks[k];
        all_cycles += total.cycles[k];
    }
    for (std::size_t k = 0; k < CycleClock::KINDS; ++k)
        rep.num["core.host_share." + kindName(k)] =
            all_ticks > 0 ? total.ticks[k] / all_ticks : 0.0;
    rep.num["exact:core.idle_cycle_frac"] =
        all_cycles > 0 ? total.cycles[CycleClock::IDLE] / all_cycles : 0.0;

    // Pass 3: RunSampler attached vs detached, alternating pairs.
    const harness::SweepJob &job = jobs.front();
    const auto timeRun = [&](bool sampled) {
        telemetry::Registry registry;
        telemetry::RunSampler sampler(registry);
        const double start = nowUs();
        (void)core::simulate(job.machine, job.profile, job.instructions,
                             core::defaultWatchdog(),
                             sampled ? &sampler : nullptr);
        const double end = nowUs();
        spans.add(sampled ? "sampled" : "detached", "sampler", 0, start,
                  end);
        return end - start;
    };
    std::vector<double> ratios;
    for (int pair = 0; pair < 3; ++pair) {
        double detached = 0, sampled = 0;
        if (pair % 2 == 0) {
            detached = timeRun(false);
            sampled = timeRun(true);
        } else {
            sampled = timeRun(true);
            detached = timeRun(false);
        }
        ratios.push_back(sampled / detached);
    }
    rep.num["telemetry.sampler_overhead_frac"] = median(ratios) - 1.0;
    rep.ok = true;
    return rep;
}

} // namespace

int
runRep(const RepArgs &args)
{
    Rep rep;
    const fs::path dir =
        fs::absolute(args.workdir) / ("rep-" + std::to_string(::getpid()));
    const fs::path home = fs::current_path();
    try {
        if (args.cpu >= 0)
            pinToCpu(args.cpu);
        const Workload w = findWorkload(args.workload, args.smoke);
        SpanSink spans(args);
        fs::create_directories(dir);
        // Sockets and journals use short relative names.
        fs::current_path(dir);
        if (args.mode == "probe") {
            rep.num["host_ns_per_inst"] = probeHost(fleetCpus(), PROBE_ROUNDS);
            rep.ok = true;
        } else if (args.mode == "layers") {
            rep = layersRep(w, args, spans);
        } else if (args.mode == "reference") {
            rep = poolRep(referenceJobs(w, args.seed), w.workers, args);
        } else if (args.mode == "timed" || args.mode == "traced" ||
                   args.mode == "setup") {
            SpanSink *sink = args.mode == "traced" ? &spans : nullptr;
            if (w.path == Path::Pool)
                rep = poolRep(ownGrid(w, args.seed), w.workers, args);
            else if (w.path == Path::Swarm)
                rep = swarmRep(w, ownGrid(w, args.seed), args, sink);
            else
                rep = serveRep(w, args, sink);
        } else {
            util::raiseError(util::SimErrorCode::BadConfig,
                             "unknown repetition mode '", args.mode, "'");
        }
        spans.write();
    } catch (const std::exception &e) {
        rep.ok = false;
        rep.error = e.what();
    }
    std::error_code ec;
    fs::current_path(home, ec);
    fs::remove_all(dir, ec);
    std::cout << repToJson(rep) << std::endl;
    return 0;
}

} // namespace aurora::perf
