/**
 * @file
 * aurora_sim — the command-line simulator driver.
 *
 * Usage:
 *   aurora_sim [options] [key=value ...]
 *
 * Options:
 *   --bench NAME      benchmark (default espresso); 'int' or 'fp'
 *                     run the whole suite; 'all' runs both suites
 *   --insts N         instructions per run (default 400000)
 *   --trace FILE      replay a captured trace file instead of a
 *                     synthetic benchmark
 *   --csv             emit machine-readable CSV summary
 *   --describe        print the fully resolved configuration and exit
 *   --pipeline-trace N  print per-cycle issue/stall/retire events for
 *                     the first N cycles (single benchmark only)
 *   --cycle-budget N  abort any run that reaches simulated cycle N
 *                     with a CycleBudgetExceeded error (0 = unlimited)
 *   --journal FILE    append every completed run to a crash-safe
 *                     sweep journal (synthetic benchmarks only)
 *   --resume          with --journal: replay completed runs from the
 *                     journal and execute only the missing ones
 *   --stats-json FILE write the run (or suite) as a structured JSON
 *                     document, schema aurora.run.v1/aurora.suite.v1,
 *                     including the telemetry metrics registry
 *                     ('-' = stdout; see docs/observability.md)
 *   --stats-csv FILE  write one flat CSV row per run ('-' = stdout)
 *   --trace-events FILE  write a Chrome trace-event (Perfetto)
 *                     rendering of the pipeline, bounded by
 *                     --trace-event-cycles (single benchmark only)
 *   --trace-event-cycles N  cycles captured by --trace-events
 *                     (default 50000)
 *   --sweep-trace FILE  with --journal: write the sweep's causal
 *                     trace (grid root, per-job and per-attempt
 *                     spans, one track per worker) as a Chrome
 *                     trace-event file
 *
 * Remaining key=value arguments configure the machine; see
 * `src/core/config_io.hh` (model=, icache=, mshr=, latency=,
 * fp_policy=, ...).
 *
 * Error handling: recoverable user errors (bad key=value, corrupt
 * trace file, a machine that stops making forward progress — see
 * docs/robustness.md) surface as util::SimError; main() catches them
 * and exits 1 with a one-line diagnostic instead of a stack trace.
 *
 * Examples:
 *   aurora_sim --bench gcc model=large latency=35
 *   aurora_sim --bench int model=baseline mshr=4 icache=4096
 *   aurora_sim --bench fp fp_policy=inorder
 *   aurora_sim --bench nasa7 --cycle-budget 2000000 fp_buses=1
 *   aurora_sim --bench espresso --stats-json - --trace-events t.json
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "core/pipeline_trace.hh"
#include "core/report.hh"
#include "core/simulator.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "telemetry/export.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_event.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "trace/trace_io.hh"
#include "util/env.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: aurora_sim [--bench NAME|int|fp|all] [--insts N]\n"
        << "                  [--trace FILE] [--csv] [--describe]\n"
        << "                  [--pipeline-trace N] [--cycle-budget N]\n"
        << "                  [--journal FILE] [--resume]\n"
        << "                  [--stats-json FILE] [--stats-csv FILE]\n"
        << "                  [--trace-events FILE]\n"
        << "                  [--trace-event-cycles N]\n"
        << "                  [--sweep-trace FILE]\n"
        << "                  [key=value ...]\n";
    std::exit(2);
}

/** Export destination: a file, or stdout when the path is "-". */
class Output
{
  public:
    explicit Output(const std::string &path)
    {
        if (path == "-")
            return;
        file_.open(path);
        if (!file_)
            util::raiseError(util::SimErrorCode::BadConfig,
                             "cannot open output file '", path, "'");
    }

    std::ostream &stream() { return file_.is_open() ? file_ : std::cout; }

  private:
    std::ofstream file_;
};

/** Everything --stats-json/--stats-csv/--trace-events asked for. */
struct ExportRequest
{
    std::string stats_json;
    std::string stats_csv;
    std::string trace_events;
    Cycle trace_event_cycles = 50'000;
    std::string sweep_trace;

    bool wantsStats() const
    {
        return !stats_json.empty() || !stats_csv.empty();
    }
};

/** Write the single-run exports (JSON document, CSV, trace events). */
void
exportRun(const ExportRequest &request, const RunResult &result,
          const telemetry::Registry *registry,
          const telemetry::TraceEventLog *events)
{
    if (!request.stats_json.empty()) {
        Output out(request.stats_json);
        telemetry::writeRunDocument(out.stream(), result, registry);
    }
    if (!request.stats_csv.empty()) {
        Output out(request.stats_csv);
        out.stream() << telemetry::statsCsvHeader() << '\n'
                     << telemetry::statsCsvRow(result) << '\n';
    }
    if (!request.trace_events.empty()) {
        Output out(request.trace_events);
        events->write(out.stream());
    }
}

/** Write the suite exports; @p registries may be empty (no metrics). */
void
exportSuite(const ExportRequest &request,
            const std::vector<RunResult> &runs,
            const std::vector<telemetry::Registry> &registries)
{
    if (!request.stats_json.empty()) {
        std::vector<telemetry::SuiteEntry> entries;
        entries.reserve(runs.size());
        for (std::size_t i = 0; i < runs.size(); ++i)
            entries.push_back({&runs[i], i < registries.size()
                                             ? &registries[i]
                                             : nullptr});
        Output out(request.stats_json);
        telemetry::writeSuiteDocument(out.stream(), entries);
    }
    if (!request.stats_csv.empty()) {
        Output out(request.stats_csv);
        out.stream() << telemetry::statsCsvHeader() << '\n';
        for (const RunResult &r : runs)
            out.stream() << telemetry::statsCsvRow(r) << '\n';
    }
}

/** Print a suite: CSV, or its table, stall breakdown and mean CPI. */
void
printSuite(const SuiteResult &res, bool csv)
{
    if (csv) {
        std::cout << suiteTable(res).csv();
        return;
    }
    suiteTable(res).print(std::cout, "machine: " + describe(res.machine));
    stallTable(res).print(std::cout, "stall breakdown (CPI)");
    std::cout << "suite average CPI: " << formatFixed(res.avgCpi(), 3)
              << "\n";
}

int
run(int argc, char **argv)
{
    std::string bench = "espresso";
    std::string trace_file;
    Count insts = 400'000;
    Cycle trace_cycles = 0;
    bool csv = false;
    bool describe_only = false;
    std::string journal;
    bool resume = false;
    ExportRequest request;
    std::string spec;
    WatchdogConfig watchdog = defaultWatchdog();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--bench" && i + 1 < argc) {
            bench = argv[++i];
        } else if (arg == "--insts" && i + 1 < argc) {
            insts = countOption(arg, argv[++i]);
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_file = argv[++i];
        } else if (arg == "--pipeline-trace" && i + 1 < argc) {
            trace_cycles = countOption(arg, argv[++i]);
        } else if (arg == "--cycle-budget" && i + 1 < argc) {
            watchdog.cycle_budget = countOption(arg, argv[++i]);
        } else if (arg == "--journal" && i + 1 < argc) {
            journal = argv[++i];
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--stats-json" && i + 1 < argc) {
            request.stats_json = argv[++i];
        } else if (arg == "--stats-csv" && i + 1 < argc) {
            request.stats_csv = argv[++i];
        } else if (arg == "--trace-events" && i + 1 < argc) {
            request.trace_events = argv[++i];
        } else if (arg == "--trace-event-cycles" && i + 1 < argc) {
            request.trace_event_cycles = countOption(arg, argv[++i]);
        } else if (arg == "--sweep-trace" && i + 1 < argc) {
            request.sweep_trace = argv[++i];
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--describe") {
            describe_only = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else if (arg.find('=') != std::string::npos) {
            spec += arg + " ";
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage();
        }
    }

    const MachineConfig machine = parseMachineSpec(spec);
    if (describe_only) {
        std::cout << describe(machine) << "\n";
        return 0;
    }
    if (!request.sweep_trace.empty() && journal.empty())
        util::raiseError(util::SimErrorCode::BadConfig,
                         "--sweep-trace requires --journal FILE (it "
                         "traces the sweep engine's jobs)");

    if (!trace_file.empty()) {
        if (!journal.empty() || resume)
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--journal/--resume apply to synthetic "
                             "benchmarks, not --trace replays");
        telemetry::Registry registry;
        telemetry::TraceEventLog events;
        std::optional<telemetry::RunSampler> sampler;
        std::optional<telemetry::TraceEventObserver> event_observer;
        ObserverFanout fanout;
        if (!request.stats_json.empty())
            fanout.attach(&sampler.emplace(registry));
        if (!request.trace_events.empty())
            fanout.attach(&event_observer.emplace(
                events, request.trace_event_cycles));
        trace::FileTraceSource src(trace_file);
        trace::LimitedTraceSource limited(src, insts);
        Processor cpu(machine, limited, watchdog);
        if (!fanout.empty())
            cpu.setObserver(&fanout);
        RunResult r = cpu.run();
        r.benchmark = trace_file;
        std::cout << runReport(r);
        exportRun(request, r, sampler ? &registry : nullptr, &events);
        return 0;
    }

    std::vector<trace::WorkloadProfile> suite;
    if (bench == "int") {
        suite = trace::integerSuite();
    } else if (bench == "fp") {
        suite = trace::floatSuite();
    } else if (bench == "all") {
        suite = trace::integerSuite();
        const auto fp = trace::floatSuite();
        suite.insert(suite.end(), fp.begin(), fp.end());
    } else {
        suite.push_back(trace::profileByName(bench));
    }
    if (!request.trace_events.empty() && (suite.size() != 1 || csv))
        util::raiseError(util::SimErrorCode::BadConfig,
                         "--trace-events renders one pipeline: pick a "
                         "single benchmark (like --pipeline-trace)");

    if (!journal.empty()) {
        if (trace_cycles > 0)
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--journal cannot be combined with "
                             "--pipeline-trace");
        if (!request.trace_events.empty())
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--journal cannot be combined with "
                             "--trace-events (use --sweep-trace for "
                             "the sweep-level trace)");
    } else if (resume) {
        util::raiseError(util::SimErrorCode::BadConfig,
                         "--resume requires --journal FILE");
    }

    if (journal.empty() && suite.size() == 1 && !csv) {
        telemetry::Registry registry;
        telemetry::TraceEventLog events;
        std::optional<PipelineTracer> tracer;
        std::optional<telemetry::RunSampler> sampler;
        std::optional<telemetry::TraceEventObserver> event_observer;
        ObserverFanout fanout;
        if (trace_cycles > 0)
            fanout.attach(&tracer.emplace(std::cout, trace_cycles));
        if (!request.stats_json.empty())
            fanout.attach(&sampler.emplace(registry));
        if (!request.trace_events.empty())
            fanout.attach(&event_observer.emplace(
                events, request.trace_event_cycles));

        trace::SyntheticWorkload workload(suite.front());
        trace::LimitedTraceSource limited(workload, insts);
        Processor cpu(machine, limited, watchdog);
        if (!fanout.empty())
            cpu.setObserver(&fanout);
        RunResult r = cpu.run();
        r.benchmark = suite.front().name;
        std::cout << runReport(r);
        exportRun(request, r, sampler ? &registry : nullptr, &events);
        return 0;
    }

    SuiteResult res;
    res.machine = machine;
    if (journal.empty() && request.wantsStats()) {
        // Suite exports keep the sweep engine's parallelism: one
        // registry+sampler pair per job, results in submission order.
        std::vector<telemetry::Registry> registries(suite.size());
        std::vector<std::unique_ptr<telemetry::RunSampler>> samplers;
        std::vector<std::function<RunResult()>> tasks;
        samplers.reserve(suite.size());
        tasks.reserve(suite.size());
        for (std::size_t i = 0; i < suite.size(); ++i) {
            samplers.push_back(std::make_unique<telemetry::RunSampler>(
                registries[i]));
            telemetry::RunSampler *sampler = samplers.back().get();
            const trace::WorkloadProfile &profile = suite[i];
            tasks.push_back([&machine, &profile, insts, watchdog,
                             sampler]() {
                return simulate(machine, profile, insts, watchdog,
                                sampler);
            });
        }
        harness::SweepOptions sweep_options;
        sweep_options.watchdog = watchdog;
        harness::SweepRunner runner(sweep_options);
        res.runs = runner.runTasks(tasks);
        exportSuite(request, res.runs, registries);
        printSuite(res, csv);
        return 0;
    }

    // Every other suite runs through the sweep engine's grid path.
    // With --journal every completed benchmark is flushed to disk,
    // and --resume replays finished ones bit-identically (see
    // docs/harness.md).
    const std::vector<harness::SweepJob> grid =
        harness::suiteJobs(machine, suite, insts);
    harness::SweepOptions sweep_options;
    sweep_options.watchdog = watchdog;
    sweep_options.journal = journal;
    sweep_options.resume = resume;
    // The trace id is a pure function of the grid, so a --resume run
    // traces into the same id as the run it continues.
    const std::uint64_t trace_id = obs::traceIdForGrid(
        harness::gridFingerprint(grid, sweep_options.base_seed));
    obs::SpanLog spans(obs::TraceContext{trace_id});
    if (!request.sweep_trace.empty())
        sweep_options.span_log = &spans;
    harness::SweepRunner runner(sweep_options);
    const auto outcomes = runner.runOutcomes(grid);
    if (!request.sweep_trace.empty()) {
        Output out(request.sweep_trace);
        obs::writeGridTrace(out.stream(), spans.spans(), trace_id,
                            "grid " + obs::hexId(trace_id),
                            /*pid=*/0, spans.nowUs(), "aurora_sim");
    }

    bool any_failed = false;
    for (const auto &out : outcomes) {
        if (out.ok) {
            res.runs.push_back(out.result);
        } else {
            any_failed = true;
            std::cerr << "aurora_sim: job failed ("
                      << util::errorCodeName(out.code)
                      << "): " << out.error << "\n";
        }
    }
    if (any_failed)
        return 1;
    // Journal replays carry no live registry, so these exports
    // contain the RunResults without per-run metrics.
    exportSuite(request, res.runs, {});
    if (res.runs.size() == 1 && !csv) {
        std::cout << runReport(res.runs.front());
        return 0;
    }
    printSuite(res, csv);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const util::SimError &e) {
        // A recoverable user error: bad configuration, corrupt trace,
        // or a wedged machine caught by the watchdog. One line, no
        // core dump — the message already names the offending input.
        std::cerr << "aurora_sim: " << e.what() << "\n";
        return 1;
    }
}
