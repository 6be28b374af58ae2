/**
 * @file
 * aurora_perf — the repository benchmark (bench/perf/README.md).
 *
 * The parent process (parent.cc) times repetitions; every repetition
 * is a fresh child process (workloads.cc) that runs one workload and
 * prints one Rep line on stdout. compare.cc judges results files
 * against the bounds in BENCHMARK.json.
 */

#ifndef AURORA_PERF_PERF_HH
#define AURORA_PERF_PERF_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/sweep.hh"
#include "telemetry/json.hh"

namespace aurora::perf
{

/** How a workload's jobs reach the simulator. */
enum class Path
{
    /** In-process harness::SweepRunner. */
    Pool,
    /** shard::Swarm with fork-mode shard processes. */
    Swarm,
    /** Closed-loop clients of a spawned aurora_serve. */
    Serve,
};

/** One benchmark workload (README.md gives each one's reason). */
struct Workload
{
    std::string name;
    Path path = Path::Pool;
    /** Pool threads, swarm shards or daemon workers. */
    unsigned workers = 1;
    /** serve_burst: client connections and timed grids per client. */
    unsigned clients = 0;
    unsigned grids_per_client = 0;
    /** Simulated instructions per job. */
    Count insts = 0;
};

/** Workload names in the order a full set runs them. */
const std::vector<std::string> &workloadNames();

/** Look up @p name; @p smoke shrinks every job 50-fold. Throws
 *  util::SimError (BadConfig) on an unknown name. */
Workload findWorkload(const std::string &name, bool smoke);

/** Ids of the CPUs this process may run on. */
std::vector<int> allowedCpus();

/** How many CPUs this process may run on (what `nproc` prints). */
unsigned onlineCpus();

/** Restrict the calling process to CPU @p cpu. */
void pinToCpu(int cpu);

/** min(nproc, 4): the thread, shard and connection count. */
unsigned fleetWidth();

/** The first fleetWidth() CPUs this process may run on. */
std::vector<int> fleetCpus();

class ReferenceModel;

/**
 * Host-speed probe (probe.cc): times a fixed reference pipeline model,
 * built with fixed flags, on the calling thread.
 */
class HostProbe
{
  public:
    /** Allocates the model and runs one untimed round to warm it. */
    HostProbe();
    ~HostProbe();
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** Median host ns per modelled instruction over @p rounds rounds. */
    double sample(int rounds);

  private:
    std::unique_ptr<ReferenceModel> model_;
};

/** A HostProbe on each of @p cpus at once; the median of their
 *  samples of @p rounds rounds. */
double probeHost(const std::vector<int> &cpus, int rounds);

/**
 * The jobs a workload's stats_digest covers when run in-process: its
 * own grid, or for serve_burst the jobs of its sample grids (seeds
 * already derived). The parent cross-checks the workload's own path
 * against an in-process run of exactly these jobs.
 */
std::vector<harness::SweepJob> referenceJobs(const Workload &w,
                                             std::uint64_t seed);

/** Everything one repetition measured, as flat name → value maps. */
struct Rep
{
    bool ok = false;
    std::string error;
    std::map<std::string, double> num;
    std::map<std::string, std::vector<double>> list;
    std::map<std::string, std::string> text;

    double
    at(const std::string &key) const
    {
        const auto it = num.find(key);
        return it == num.end() ? 0.0 : it->second;
    }
};

/** One-line JSON rendering of @p rep (the child's stdout line). */
std::string repToJson(const Rep &rep);

/** Parse a repToJson() line; a malformed line yields ok=false. */
Rep repFromJson(std::string_view line);

/** What a child repetition runs (see README.md "Repetitions"). */
struct RepArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    /** timed | traced | layers | reference | setup */
    std::string mode = "timed";
    bool smoke = false;
    /** Parent's steady-clock reading when it spawned this process. */
    double spawn_us = 0.0;
    /** Working directory; the rep works in a subdirectory of it. */
    std::string workdir;
    /** CPU to pin a single-threaded repetition to (-1 = none). */
    int cpu = -1;
    /** traced/layers: NDJSON span file to write, and span parentage. */
    std::string spans;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
    std::uint32_t track = 0;
};

/** Child entry point: run one repetition, print its Rep line. */
int runRep(const RepArgs &args);

/** What the parent runs. */
struct RunArgs
{
    std::vector<std::string> workloads;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool traced = false;
    bool smoke = false;
    /** Working space of the repetitions (run from the checkout root). */
    std::string workdir = "build-perf/work";
    /** Results JSON to write ("" = none). */
    std::string results;
    /** Directory for the Chrome traces of traced runs. */
    std::string trace_dir = "build-perf/results";
    std::string git_rev = "unknown";
};

/** Parent entry point; returns the process exit code. */
int runBenchmark(const RunArgs &args);

/** `compare` subcommand (see compare.cc). */
int compareResults(const std::string &bounds,
                   const std::vector<std::string> &parents,
                   const std::vector<std::string> &changes);

/** `check-repeat` subcommand (see compare.cc). */
int checkRepeat(const std::string &bounds, const std::string &first,
                const std::string &second);

/// @name Shared helpers
/// @{

/** Steady-clock microseconds (one clock for every process). */
double nowUs();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1] (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Python statistics.quantiles(v, n=4) first and third quartiles. */
std::pair<double, double> quartiles(std::vector<double> v);

/** Read a whole file and parse it as JSON; throws on failure. */
telemetry::JsonValue loadJsonFile(const std::string &path);

/** Number member @p key of object @p v (0 when absent). */
double numberAt(const telemetry::JsonValue &v, std::string_view key);

/** String member @p key of object @p v ("" when absent). */
std::string stringAt(const telemetry::JsonValue &v, std::string_view key);

/// @}

} // namespace aurora::perf

#endif // AURORA_PERF_PERF_HH
