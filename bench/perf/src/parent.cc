/**
 * @file
 * The parent process: spawns every repetition as a fresh child, checks
 * the outputs, turns repetitions into metrics, prints them, and writes
 * the results file and (traced runs) one Chrome trace per workload.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "obs/ids.hh"
#include "obs/trace.hh"
#include "perf.hh"
#include "util/record_io.hh"
#include "util/sim_error.hh"
#include "util/stats.hh"

extern char **environ;

namespace aurora::perf
{

namespace
{

namespace fs = std::filesystem;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Measured with nothing traced; median over repetitions. */
const std::vector<MetricDef> END_TO_END = {
    {"sim_minst_per_s", "Minst/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Reported with --trace 1 (README.md maps each to what it moves). */
const std::vector<MetricDef> PER_LAYER = {
    {"trace.synth_ns_per_inst", "ns/inst"},
    {"trace.share", "frac"},
    {"trace.reuse_frac", "frac"},
    {"trace.pull_residual_ns_per_inst", "ns/inst"},
    {"core.ns_per_inst", "ns/inst"},
    {"core.ns_per_cycle", "ns/cycle"},
    {"core.idle_cycle_frac", "frac"},
    {"core.host_share.issue", "frac"},
    {"core.host_share.idle", "frac"},
    {"core.host_share.stall.icache", "frac"},
    {"core.host_share.stall.load", "frac"},
    {"core.host_share.stall.lsu_busy", "frac"},
    {"core.host_share.stall.rob_full", "frac"},
    {"core.host_share.stall.fp_queue", "frac"},
    {"core.host_share.tail", "frac"},
    {"core.cpi", "cycles/inst"},
    {"core.stall_cpi.icache", "cycles/inst"},
    {"core.stall_cpi.load", "cycles/inst"},
    {"core.stall_cpi.lsu_busy", "cycles/inst"},
    {"core.stall_cpi.rob_full", "cycles/inst"},
    {"core.stall_cpi.fp_queue", "cycles/inst"},
    {"mem.icache_misses_per_kinst", "count/kinst"},
    {"mem.dcache_misses_per_kinst", "count/kinst"},
    {"mem.mshr_allocs_per_kinst", "count/kinst"},
    {"mem.mshr_occ_mean", "entries"},
    {"ipu.dual_issue_frac", "frac"},
    {"ipu.rob_occ_mean", "entries"},
    {"fpu.dispatched_per_kinst", "count/kinst"},
    {"fpu.instq_occ_p95", "entries"},
    {"telemetry.sampler_overhead_frac", "frac"},
    {"harness.preflight_ms", "ms"},
    {"harness.pool_efficiency", "frac"},
    {"harness.job_s_p50", "s"},
    {"harness.idle_s", "s"},
    {"shard.spawn_ms", "ms"},
    {"shard.dispatch_overhead_ms_p50", "ms"},
    {"shard.merge_ms", "ms"},
    {"shard.job_slowdown", "ratio"},
    {"shard.overhead_frac", "frac"},
    {"shard.leases", "count"},
    {"shard.respawns", "count"},
    {"shard.migrated", "count"},
    {"shard.protocol_errors", "count"},
    {"serve.accept_ms_p50", "ms"},
    {"serve.first_result_ms_p50", "ms"},
    {"serve.result_gap_ms_p50", "ms"},
    {"serve.grid_latency_p50_ms", "ms"},
    {"serve.grid_latency_p90_ms", "ms"},
    {"serve.rejected", "count"},
    {"bench.trace_overhead_frac", "frac"},
};

/**
 * Host ns per probe instruction (probe.cc) that sim_minst_per_s is
 * scaled to: about the probe's median reading on the 4-vCPU host the
 * bounds were measured on. It only sets the scale of the numbers.
 */
constexpr double REFERENCE_HOST_NS = 25.0;

/** Repetitions per run: at least this many, more while time is left. */
constexpr std::size_t MIN_REPS = 3;
constexpr std::size_t SMOKE_REPS = 2;
constexpr std::size_t MAX_REPS = 64;
/** Set-up-only repetitions per run, on top of the timed ones (a few
 *  milliseconds each). */
constexpr std::size_t SETUP_REPS = 32;
/** A child still running this long after its workload started is
 *  killed and counted failed, so a run always ends within the 180 s a
 *  caller may wait for it. */
constexpr double RUN_LIMIT_S = 170.0;

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
selfExe()
{
    std::error_code ec;
    const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
    if (ec)
        util::raiseError(util::SimErrorCode::Internal,
                         "cannot locate the aurora_perf binary: ",
                         ec.message());
    return exe.string();
}

/** Where a traced child writes its spans, and under which parent. */
struct SpanPlan
{
    std::string path;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
    std::uint32_t track = 0;
};

/** One finished child repetition. */
struct Child
{
    Rep rep;
    /** Peak RSS of the child and every descendant it reaped, MB. */
    double rss_mb = 0.0;
    double start_us = 0.0;
    double end_us = 0.0;
    /** Host ns per probe instruction around this repetition. */
    double host_ns = 0.0;
};

/**
 * Run `aurora_perf rep ...` in its own process group, read its Rep
 * line, and wait for it. wait4's rusage covers the child and the
 * descendants it reaped (the daemon, shard processes), so the peak
 * RSS is the largest of any process of the rep. Anything of the group
 * still alive afterwards is killed and reaped: this process is a child
 * subreaper, so orphans come back to it.
 */
Child
spawnRep(const RunArgs &run, const std::string &workload,
         const std::string &mode, const SpanPlan *plan, double deadline_us,
         int cpu = -1)
{
    std::vector<std::string> args = {
        "aurora_perf", "rep",
        "--workload", workload,
        "--seed", std::to_string(run.seed),
        "--mode", mode,
        "--workdir", fs::absolute(run.workdir).string()};
    if (run.smoke)
        args.push_back("--smoke");
    if (cpu >= 0)
        args.insert(args.end(), {"--cpu", std::to_string(cpu)});
    if (plan) {
        args.insert(args.end(),
                    {"--spans", plan->path, "--trace-id",
                     std::to_string(plan->trace_id), "--parent-span",
                     std::to_string(plan->parent_span), "--track",
                     std::to_string(plan->track)});
    }
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        util::raiseError(util::SimErrorCode::Internal, "pipe: ",
                         std::strerror(errno));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
    posix_spawnattr_setpgroup(&attr, 0);

    Child child;
    std::ostringstream stamp;
    child.start_us = nowUs();
    stamp << std::fixed << std::setprecision(3) << child.start_us;
    args.insert(args.end(), {"--spawn-us", stamp.str()});
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    static const std::string exe = selfExe();
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, exe.c_str(), &actions, &attr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    posix_spawnattr_destroy(&attr);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        child.rep.error = std::string("cannot spawn a repetition: ") +
                          std::strerror(rc);
        return child;
    }

    std::string out;
    bool timed_out = false;
    while (true) {
        pollfd p{fds[0], POLLIN, 0};
        const int left_ms =
            static_cast<int>(std::max(0.0, (deadline_us - nowUs()) / 1e3));
        const int ready = ::poll(&p, 1, left_ms);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0) {
            timed_out = true;
            ::killpg(pid, SIGKILL);
            break;
        }
        char buf[4096];
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    child.end_us = nowUs();
    ::killpg(pid, SIGKILL);
    while (::waitpid(-pid, nullptr, 0) > 0 || errno == EINTR) {
    }
    child.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    const auto last = out.find_last_not_of('\n');
    const auto line_start =
        last == std::string::npos ? 0 : out.rfind('\n', last);
    child.rep = repFromJson(
        out.substr(line_start == std::string::npos ? 0 : line_start + 1));
    if (timed_out) {
        child.rep.ok = false;
        child.rep.error = "repetition timed out";
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        child.rep.ok = false;
        child.rep.error += " (repetition exited abnormally)";
    }
    return child;
}

/** Spans of a traced run: the parent's own plus every child's. */
class SpanTrace
{
  public:
    SpanTrace(const RunArgs &run, const std::string &workload)
        : run_(run), workload_(workload),
          trace_id_(obs::mix64(run.seed ^ util::fnv1a64(workload))),
          start_us_(nowUs())
    {
        processes_.push_back({0, "aurora_perf " + workload});
    }

    std::uint64_t workloadSpan() const { return trace_id_; }

    /** Plan for the next child; its spans hang under its rep span. */
    SpanPlan
    plan(const std::string &label)
    {
        SpanPlan p;
        p.track = 1000 + static_cast<std::uint32_t>(labels_.size());
        p.trace_id = trace_id_;
        p.parent_span = obs::mix64(trace_id_ ^ p.track);
        p.path = (fs::absolute(run_.workdir) /
                  ("spans-" + std::to_string(::getpid()) + "-" +
                   std::to_string(p.track) + ".ndjson"))
                     .string();
        labels_.push_back(label);
        processes_.push_back({p.track, label});
        return p;
    }

    /** Record the parent-side span of a finished child. */
    void
    addChild(const SpanPlan &p, const Child &child)
    {
        obs::Span span;
        span.trace_id = trace_id_;
        span.span_id = p.parent_span;
        span.parent_id = trace_id_;
        span.name = labels_[p.track - 1000];
        span.cat = "rep";
        span.ts_us = child.start_us;
        span.dur_us = child.end_us - child.start_us;
        spans_.push_back(std::move(span));
        std::error_code ec;
        if (fs::exists(p.path, ec)) {
            const auto loaded = obs::loadSpanFile(p.path).spans;
            for (const obs::Span &s : loaded)
                if (s.pid == 1 || (s.pid >= 100 && s.pid < 1000))
                    shardTrack(s.pid);
            spans_.insert(spans_.end(), loaded.begin(), loaded.end());
            fs::remove(p.path, ec);
        }
    }

    /** Self time (span minus its children's cover) by category, µs. */
    std::map<std::string, double>
    selfTime() const
    {
        std::unordered_map<std::uint64_t, std::vector<const obs::Span *>>
            kids;
        for (const obs::Span &s : spans_)
            kids[s.parent_id].push_back(&s);
        // Shard processes stamp spans on their own clocks; a child on
        // another clock covers its duration, not its interval.
        const auto own_clock = [](const obs::Span &s) {
            return s.pid >= 100 && s.pid < 1000;
        };
        std::map<std::string, double> self;
        for (const obs::Span &s : spans_) {
            if (s.instant)
                continue;
            std::vector<std::pair<double, double>> cover;
            double foreign = 0;
            for (const obs::Span *k : kids[s.span_id]) {
                if (own_clock(*k) != own_clock(s)) {
                    foreign += k->dur_us;
                } else {
                    const double a = std::max(k->ts_us, s.ts_us);
                    const double b =
                        std::min(k->ts_us + k->dur_us, s.ts_us + s.dur_us);
                    if (b > a)
                        cover.emplace_back(a, b);
                }
            }
            std::sort(cover.begin(), cover.end());
            double covered = 0, reach = -1e300;
            for (const auto &[a, b] : cover) {
                const double from = std::max(a, reach);
                if (b > from)
                    covered += b - from;
                reach = std::max(reach, b);
            }
            self[s.cat] += std::max(0.0, s.dur_us - covered - foreign);
        }
        return self;
    }

    /** Write the Chrome trace; returns its path. */
    std::string
    write()
    {
        obs::Span root;
        root.trace_id = trace_id_;
        root.span_id = trace_id_;
        root.name = workload_;
        root.cat = "workload";
        root.ts_us = start_us_;
        root.dur_us = nowUs() - start_us_;
        spans_.push_back(std::move(root));
        fs::create_directories(run_.trace_dir);
        const std::string path =
            (fs::path(run_.trace_dir) /
             ("trace-" + workload_ + "-s" + std::to_string(run_.seed) +
              ".json"))
                .string();
        std::ofstream os(path, std::ios::binary);
        obs::writeChromeTrace(os, spans_, processes_);
        return path;
    }

  private:
    void
    shardTrack(std::uint32_t pid)
    {
        for (const obs::ProcessName &p : processes_)
            if (p.pid == pid)
                return;
        processes_.push_back(
            {pid, pid == 1 ? std::string("aurora_swarm coordinator")
                           : "aurora_shardd e" + std::to_string(pid - 100)});
    }

    const RunArgs &run_;
    std::string workload_;
    std::uint64_t trace_id_;
    double start_us_;
    std::vector<std::string> labels_;
    std::vector<obs::Span> spans_;
    std::vector<obs::ProcessName> processes_;
};

/** One workload's measured run. */
struct WorkloadResult
{
    std::string name;
    bool correct = true;
    std::vector<std::string> problems;
    double attempted = 0;
    double failed = 0;
    std::size_t reps = 0;
    std::map<std::string, double> e2e;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> layer;
    std::map<std::string, double> exact;
    std::map<std::string, std::string> digests;
    std::map<std::string, double> self_us;
    std::string trace_path;
    /** Median unscaled throughput, Minst/s, and probe speed, ns/inst. */
    double raw_minst_per_s = 0;
    double host_ns = 0;
};

std::vector<double>
perRep(const std::vector<Child> &reps,
       const std::function<double(const Child &)> &f)
{
    std::vector<double> v;
    for (const Child &c : reps)
        v.push_back(f(c));
    return v;
}

std::vector<double>
pooled(const std::vector<Child> &reps, const std::string &key)
{
    std::vector<double> v;
    for (const Child &c : reps) {
        const auto it = c.rep.list.find(key);
        if (it != c.rep.list.end())
            v.insert(v.end(), it->second.begin(), it->second.end());
    }
    return v;
}

std::string
textOf(const Rep &rep, const std::string &key)
{
    const auto it = rep.text.find(key);
    return it == rep.text.end() ? std::string() : it->second;
}

WorkloadResult
runWorkload(const RunArgs &run, const std::string &name)
{
    const Workload w = findWorkload(name, run.smoke);
    WorkloadResult out;
    out.name = name;
    const auto problem = [&out](const std::string &what) {
        out.correct = false;
        out.problems.push_back(what);
    };
    std::optional<SpanTrace> trace;
    if (run.traced)
        trace.emplace(run, name);
    std::mutex trace_mutex;
    const double deadline = nowUs() + RUN_LIMIT_S * 1e6;
    const auto spawn = [&](const std::string &mode, bool inner,
                           int cpu = -1) {
        if (!trace)
            return spawnRep(run, name, mode, nullptr, deadline, cpu);
        SpanPlan p;
        {
            const std::lock_guard<std::mutex> lock(trace_mutex);
            p = trace->plan(mode);
        }
        Child c =
            spawnRep(run, name, mode, inner ? &p : nullptr, deadline, cpu);
        const std::lock_guard<std::mutex> lock(trace_mutex);
        trace->addChild(p, c);
        return c;
    };
    const auto require = [&](const Child &c, const std::string &what) {
        if (!c.rep.ok)
            problem(what + " failed: " + c.rep.error);
        const std::string job_error = textOf(c.rep, "job_error");
        if (!job_error.empty())
            problem(what + ": a job failed: " + job_error);
    };

    // The digest the own path must reproduce, computed in-process.
    std::optional<Child> reference;
    if (w.path != Path::Pool) {
        reference = spawn("reference", false);
        require(*reference, "reference run");
    }

    // Repetitions run in batches that take the whole fleet of W CPUs: a
    // multi-threaded workload's batch is one repetition; a
    // single-threaded workload's is one repetition pinned to each CPU,
    // the load a user's parallel sweep puts on the host, and W times
    // the samples. A single-threaded repetition samples host speed
    // itself, between its jobs; for the others the host probe runs
    // alone on the same CPUs before and after every batch.
    std::vector<int> lanes = fleetCpus();
    const bool self_probed = w.workers == 1 && !lanes.empty();
    if (!self_probed)
        lanes = {-1};
    const auto probe = [&] {
        if (self_probed)
            return 0.0;
        const Child c = spawn("probe", false);
        require(c, "host probe");
        return c.rep.at("host_ns_per_inst");
    };

    std::vector<Child> reps;
    const std::size_t min_reps = run.smoke ? SMOKE_REPS : MIN_REPS;
    const double budget = run.smoke ? 0.0 : run.seconds;
    const WallTimer loop;
    double longest = 0;
    double before = probe();
    bool ok = true;
    while (ok && (reps.size() < min_reps ||
                  (loop.seconds() + longest <= budget &&
                   reps.size() + lanes.size() <= MAX_REPS))) {
        const WallTimer timer;
        std::vector<Child> batch(lanes.size());
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < lanes.size(); ++k)
            threads.emplace_back(
                [&, k] { batch[k] = spawn("timed", false, lanes[k]); });
        for (std::thread &t : threads)
            t.join();
        const double after = probe();
        for (Child &c : batch) {
            c.host_ns = self_probed ? c.rep.at("host_ns_per_inst")
                                    : std::sqrt(before * after);
            ok = ok && c.rep.ok;
            reps.push_back(std::move(c));
        }
        before = after;
        longest = std::max(longest, timer.seconds());
    }
    out.reps = reps.size();
    // Set-up is timed alone, one repetition at a time, a single-threaded
    // workload's on each of its CPUs in turn.
    std::vector<Child> setups;
    for (std::size_t k = 0; k < (run.smoke ? SMOKE_REPS : SETUP_REPS); ++k) {
        setups.push_back(spawn("setup", false, lanes[k % lanes.size()]));
        require(setups.back(), "set-up repetition " + std::to_string(k));
    }

    std::optional<Child> traced, layers;
    if (run.traced) {
        if (w.path != Path::Pool) {
            traced = spawn("traced", true);
            require(*traced, "traced repetition");
        }
        // A single-threaded workload's timed repetitions shared the host
        // with W - 1 others; so does its layer pass, so that the split
        // and the end-to-end time per instruction compare.
        std::atomic<bool> split_done{false};
        std::vector<Child> loads(self_probed ? lanes.size() : 1);
        std::vector<std::thread> threads;
        for (std::size_t k = 1; k < loads.size(); ++k)
            threads.emplace_back([&, k] {
                do
                    loads[k] = spawn("timed", false, lanes[k]);
                while (loads[k].rep.ok && !split_done);
            });
        layers = spawn("layers", true, self_probed ? lanes[0] : -1);
        split_done = true;
        for (std::thread &t : threads)
            t.join();
        require(*layers, "layer pass");
        for (std::size_t k = 1; k < loads.size(); ++k)
            require(loads[k], "load repetition");
    }

    // Correctness: every repetition audited and bit-identical to the
    // first; the own path equal to the in-process reference.
    const Rep &first = reps.front().rep;
    const std::string digest = textOf(first, "digest");
    const std::string sample_digest = textOf(first, "sample_digest");
    out.digests["stats_digest"] = digest;
    if (!sample_digest.empty())
        out.digests["sample_digest"] = sample_digest;
    for (std::size_t k = 0; k < reps.size(); ++k) {
        const Rep &r = reps[k].rep;
        const double units = std::max(1.0, r.at("attempted"));
        out.attempted += units;
        require(reps[k], "repetition " + std::to_string(k));
        if (!r.ok || textOf(r, "digest") != digest) {
            out.failed += units;
            if (r.ok)
                problem("repetition " + std::to_string(k) +
                        " stats_digest " + textOf(r, "digest") +
                        " differs from " + digest);
        } else {
            out.failed += r.at("failed");
        }
    }
    const std::string own_reference =
        w.path == Path::Serve ? sample_digest : digest;
    const auto same = [&](const std::optional<Child> &c,
                          const std::string &key, const std::string &want,
                          const std::string &what) {
        if (!c || !c->rep.ok)
            return;
        out.digests[what] = textOf(c->rep, key);
        if (textOf(c->rep, key) != want)
            problem(what + " " + textOf(c->rep, key) + " differs from " +
                    want);
    };
    same(reference, "digest", own_reference, "reference_digest");
    same(traced, "digest", digest, "traced_digest");
    same(layers, "digest", own_reference, "layers_digest");
    same(layers, "observed_digest", own_reference, "observed_digest");
    if (!out.correct)
        out.failed = out.attempted;

    std::vector<Child> good;
    for (const Child &c : reps)
        if (c.rep.ok)
            good.push_back(c);
    if (good.empty())
        return out;

    // End to end. A repetition's throughput is scaled by how slowly the
    // host ran the probe around it, relative to REFERENCE_HOST_NS.
    auto &e = out.samples;
    e["raw_minst_per_s"] = perRep(good, [](const Child &c) {
        return c.rep.at("insts") / c.rep.at("wall_s") / 1e6;
    });
    e["host_ns_per_inst"] =
        perRep(good, [](const Child &c) { return c.host_ns; });
    e["sim_minst_per_s"] = perRep(good, [](const Child &c) {
        return c.rep.at("insts") / c.rep.at("wall_s") / 1e6 * c.host_ns /
               REFERENCE_HOST_NS;
    });
    std::vector<double> &setup_s = e["setup_s"];
    for (const Child &c : setups)
        if (c.rep.ok)
            setup_s.push_back(c.rep.at("setup_s"));
    e["peak_rss_mb"] =
        perRep(good, [](const Child &c) { return c.rss_mb; });
    for (const MetricDef &m : END_TO_END)
        out.e2e[m.name] = median(e.at(m.name));
    out.raw_minst_per_s = median(e.at("raw_minst_per_s"));
    out.host_ns = median(e.at("host_ns_per_inst"));

    // Exact counts (identical across repetitions by the digest check).
    for (const auto &[k, v] : first.num)
        if (k.rfind("exact:", 0) == 0)
            out.exact[k.substr(6)] = v;
    if (layers && layers->rep.ok)
        out.exact["core.idle_cycle_frac"] =
            layers->rep.at("exact:core.idle_cycle_frac");

    if (!run.traced)
        return out;

    // Per layer.
    auto &L = out.layer;
    for (const MetricDef &m : PER_LAYER)
        L[m.name] = 0.0;
    for (const auto &[k, v] : out.exact)
        L[k] = v;
    const std::vector<double> wall =
        perRep(good, [](const Child &c) { return c.rep.at("wall_s"); });
    const double workers = std::max(1.0, first.at("workers"));
    L["harness.preflight_ms"] = median(perRep(
        good, [](const Child &c) { return c.rep.at("preflight_ms"); }));
    L["harness.pool_efficiency"] =
        median(perRep(good, [workers](const Child &c) {
            return c.rep.at("busy_s") / (c.rep.at("wall_s") * workers);
        }));
    L["harness.job_s_p50"] = median(pooled(good, "job_s"));
    L["harness.idle_s"] = median(perRep(good, [workers](const Child &c) {
        return c.rep.at("wall_s") - c.rep.at("busy_s") / workers;
    }));
    L["serve.accept_ms_p50"] = median(pooled(good, "serve.accept_ms"));
    L["serve.first_result_ms_p50"] =
        median(pooled(good, "serve.first_result_ms"));
    L["serve.result_gap_ms_p50"] =
        median(pooled(good, "serve.result_gap_ms"));
    const std::vector<double> latency = pooled(good, "serve.grid_latency_ms");
    L["serve.grid_latency_p50_ms"] = median(latency);
    L["serve.grid_latency_p90_ms"] = quantile(latency, 0.9);
    double rejected = 0;
    for (const Child &c : good)
        rejected += c.rep.at("serve.rejected");
    L["serve.rejected"] = rejected;

    out.self_us = trace->selfTime();
    out.trace_path = trace->write();
    if (layers && layers->rep.ok) {
        const Rep &lr = layers->rep;
        for (const auto &[k, v] : lr.num)
            if (k.rfind("core.host_share.", 0) == 0 ||
                k == "telemetry.sampler_overhead_frac")
                L[k] = v;
        const double synth_ns =
            out.self_us["trace.collect"] * 1e3 / lr.at("synth_insts");
        const double core_ns = out.self_us["core.run"] * 1e3 / lr.at("insts");
        const double job_ns = median(perRep(good, [](const Child &c) {
            return c.rep.at("busy_s") / c.rep.at("insts") * 1e9;
        }));
        L["trace.synth_ns_per_inst"] = synth_ns;
        L["trace.share"] = synth_ns / job_ns;
        L["trace.pull_residual_ns_per_inst"] = job_ns - synth_ns - core_ns;
        L["core.ns_per_inst"] = core_ns;
        L["core.ns_per_cycle"] =
            out.self_us["core.run"] * 1e3 / lr.at("core_cycles");
    }
    const Child *traced_wall =
        w.path == Path::Pool ? (layers ? &*layers : nullptr)
                             : (traced ? &*traced : nullptr);
    if (traced_wall && traced_wall->rep.ok)
        L["bench.trace_overhead_frac"] =
            traced_wall->rep.at("wall_s") / median(wall) - 1.0;
    if (w.path == Path::Swarm && traced && traced->rep.ok && reference &&
        reference->rep.ok) {
        const Rep &tr = traced->rep;
        L["shard.spawn_ms"] = tr.at("shard.spawn_ms");
        L["shard.merge_ms"] = tr.at("shard.merge_ms");
        const auto it = tr.list.find("shard.dispatch_overhead_ms");
        if (it != tr.list.end())
            L["shard.dispatch_overhead_ms_p50"] = median(it->second);
        const std::vector<Child> ref = {*reference};
        L["shard.job_slowdown"] =
            median(pooled(good, "job_s")) / median(pooled(ref, "job_s"));
        L["shard.overhead_frac"] =
            median(wall) / reference->rep.at("wall_s") - 1.0;
    }
    return out;
}

std::string
formatValue(double v)
{
    std::ostringstream os;
    os << std::setprecision(6) << v;
    return os.str();
}

void
printResult(const WorkloadResult &r, bool traced)
{
    std::cout << r.name << ": " << r.reps << " repetitions, "
              << r.attempted << " attempted, " << r.failed << " failed, "
              << (r.correct ? "outputs correct" : "OUTPUTS WRONG") << "\n";
    for (const std::string &p : r.problems)
        std::cout << "  problem: " << p << "\n";
    for (const auto &[k, v] : r.digests)
        std::cout << "  " << k << " " << v << "\n";
    for (const MetricDef &m : END_TO_END) {
        const auto it = r.e2e.find(m.name);
        if (it != r.e2e.end())
            std::cout << "  " << std::left << std::setw(34) << m.name
                      << std::right << std::setw(14)
                      << formatValue(it->second) << " " << m.unit << "\n";
    }
    std::cout << "  (host probe " << formatValue(r.host_ns)
              << " ns/inst against " << formatValue(REFERENCE_HOST_NS)
              << "; unscaled " << formatValue(r.raw_minst_per_s)
              << " Minst/s)\n";
    if (!traced)
        return;
    for (const MetricDef &m : PER_LAYER)
        std::cout << "  " << std::left << std::setw(34) << m.name
                  << std::right << std::setw(14)
                  << formatValue(r.layer.at(m.name)) << " " << m.unit
                  << "\n";
    std::cout << "  self time by span category (traced repetitions):\n";
    for (const auto &[cat, us] : r.self_us)
        std::cout << "    " << std::left << std::setw(16) << cat
                  << std::right << std::setw(12) << formatValue(us / 1e3)
                  << " ms\n";
    std::cout << "  chrome trace: " << r.trace_path << "\n";
}

void
writeMetric(telemetry::JsonWriter &w, const char *name, double value,
            const char *unit)
{
    w.key(name).beginObject();
    w.key("value").value(value);
    w.key("unit").value(unit);
    w.endObject();
}

void
writeResults(const RunArgs &run, const std::vector<WorkloadResult> &all,
             double started_unix, double loadavg)
{
    fs::create_directories(fs::absolute(run.results).parent_path());
    std::ofstream os(run.results, std::ios::binary);
    telemetry::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("aurora.perf.v1");
    // Runs compare only under an identical context.
    w.key("context").beginObject();
    w.key("nproc").value(static_cast<std::uint64_t>(onlineCpus()));
    w.key("fleet_width").value(static_cast<std::uint64_t>(fleetWidth()));
    w.key("cpu").value(cpuModel());
    w.key("compiler").value(AURORA_PERF_COMPILER);
    w.key("build_type").value(AURORA_PERF_BUILD_TYPE);
    w.key("cxx_flags").value(AURORA_PERF_CXX_FLAGS
                             " " AURORA_PERF_COMPILE_OPTIONS);
    w.key("smoke").value(run.smoke);
    w.endObject();
    w.key("git_rev").value(run.git_rev);
    w.key("loadavg_1m").value(loadavg);
    w.key("started_unix").value(started_unix);
    w.key("seed").value(static_cast<std::uint64_t>(run.seed));
    w.key("seconds").value(run.seconds);
    w.key("traced").value(run.traced);
    w.key("workloads").beginArray();
    for (const WorkloadResult &r : all) {
        w.beginObject();
        w.key("name").value(r.name);
        w.key("correct").value(r.correct);
        w.key("attempted").value(r.attempted);
        w.key("failed").value(r.failed);
        w.key("reps").value(static_cast<std::uint64_t>(r.reps));
        w.key("host_ns_per_inst").value(r.host_ns);
        w.key("raw_minst_per_s").value(r.raw_minst_per_s);
        w.key("problems").beginArray();
        for (const std::string &p : r.problems)
            w.value(p);
        w.endArray();
        w.key("digests").beginObject();
        for (const auto &[k, v] : r.digests)
            w.key(k).value(v);
        w.endObject();
        w.key("end_to_end").beginObject();
        for (const MetricDef &m : END_TO_END)
            if (r.e2e.count(m.name))
                writeMetric(w, m.name, r.e2e.at(m.name), m.unit);
        w.endObject();
        w.key("samples").beginObject();
        for (const auto &[k, v] : r.samples) {
            w.key(k).beginArray();
            for (const double x : v)
                w.value(x);
            w.endArray();
        }
        w.endObject();
        w.key("exact").beginObject();
        for (const auto &[k, v] : r.exact)
            w.key(k).value(v);
        w.endObject();
        w.key("per_layer").beginObject();
        for (const MetricDef &m : PER_LAYER)
            if (r.layer.count(m.name))
                writeMetric(w, m.name, r.layer.at(m.name), m.unit);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

/** The benchmark contract's last line for a single-workload run. */
void
printContractLine(const WorkloadResult &r, bool traced)
{
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    w.beginObject();
    w.key("correct").value(r.correct);
    w.key("attempted").value(static_cast<std::uint64_t>(r.attempted));
    w.key("failed").value(static_cast<std::uint64_t>(r.failed));
    w.key("metrics").beginObject();
    for (const MetricDef &m : traced ? PER_LAYER : END_TO_END) {
        const auto &values = traced ? r.layer : r.e2e;
        const auto it = values.find(m.name);
        writeMetric(w, m.name, it == values.end() ? 0.0 : it->second,
                    m.unit);
    }
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
}

} // namespace

int
runBenchmark(const RunArgs &run)
{
    // Orphaned grandchildren (a killed rep's daemon or shards) are
    // re-parented here so spawnRep can reap them.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    double loadavg = 0;
    (void)::getloadavg(&loadavg, 1);
    const double started_unix =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    fs::create_directories(run.workdir);

    std::vector<WorkloadResult> all;
    for (const std::string &name : run.workloads) {
        std::cerr << "aurora_perf: running " << name << "\n";
        all.push_back(runWorkload(run, name));
        printResult(all.back(), run.traced);
    }

    bool correct = true;
    for (const WorkloadResult &r : all)
        correct = correct && r.correct && r.failed == 0;
    // The same 72-job grid on two paths must agree bit for bit.
    const auto digestOf = [&](const std::string &name) {
        for (const WorkloadResult &r : all)
            if (r.name == name)
                return r.digests.count("stats_digest")
                           ? r.digests.at("stats_digest")
                           : std::string();
        return std::string();
    };
    if (!digestOf("grid_pool").empty() && !digestOf("grid_swarm").empty()) {
        const bool agree = digestOf("grid_pool") == digestOf("grid_swarm");
        std::cout << "grid_pool vs grid_swarm stats_digest: "
                  << (agree ? "identical" : "DIFFERENT") << "\n";
        correct = correct && agree;
    }
    if (!run.results.empty()) {
        writeResults(run, all, started_unix, loadavg);
        std::cout << "results: " << run.results << "\n";
    }
    if (all.size() == 1)
        printContractLine(all.front(), run.traced);
    return correct ? 0 : 1;
}

} // namespace aurora::perf
