/**
 * @file
 * bench_ext_fault_storm — end-to-end exercise of the fault-tolerance
 * machinery (extension; not a figure from the paper).
 *
 * A design-space sweep is only trustworthy if a bad grid point cannot
 * take down the run and every class of fault is actually detected.
 * This driver manufactures all of them with the deterministic
 * injectors in src/faultinject and proves:
 *
 *   1. a grid with ~1/3 poisoned jobs (invalid configs + wedged
 *      machines) runs to completion at 1, 2 and 8 workers, healthy
 *      results stay bit-identical to an all-healthy sweep, and every
 *      injected fault surfaces with the expected error code;
 *   2. every trace-corruption mode is caught as BadTrace;
 *   3. the hard cycle budget trips deterministically;
 *   4. the retry policy turns a transiently failing job into a
 *      success and is visible in the report;
 *   5. a sweep SIGKILLed mid-grid leaves a half-written journal from
 *      which resume completes bit-identically at 1, 2 and 8 workers;
 *   6. a wedged machine under a wall-clock deadline becomes a Timeout
 *      outcome without blocking the rest of the grid;
 *   7. the sweep's span log records retry, timeout, and resume spans
 *      and exports them as a loadable causal trace-event artifact
 *      (AURORA_TIMELINE_OUT=path keeps it for Perfetto).
 *
 * Exits non-zero if any expectation fails, so scripts/check.sh can
 * use it as a smoke test.
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analyze/lint_config.hh"
#include "bench_common.hh"
#include "core/watchdog.hh"
#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "telemetry/json.hh"
#include "trace/synthetic_workload.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using namespace aurora::harness;
namespace fi = aurora::faultinject;

constexpr std::uint64_t STORM_SEED = 0xfa17u;
constexpr double POISON_FRACTION = 1.0 / 3.0;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
    if (!ok)
        ++failures;
}

/** Key-field equality — enough to witness bit-identical replay. */
bool
sameRun(const RunResult &a, const RunResult &b)
{
    return a.model == b.model && a.benchmark == b.benchmark &&
           a.instructions == b.instructions && a.cycles == b.cycles &&
           a.stalls == b.stalls && a.stores == b.stores &&
           a.fp_dispatched == b.fp_dispatched &&
           a.issue_width_cycles == b.issue_width_cycles;
}

/** Did the static linter flag @p machine with an error? */
bool
staticallyCaught(const MachineConfig &machine)
{
    return analyze::hasErrors(analyze::lintConfig(machine));
}

/** The storm grid: 3 models x (3 integer + 3 FP) benchmarks. */
std::vector<SweepJob>
healthyGrid(Count insts)
{
    const std::vector<std::string> benches = {
        "espresso", "li", "gcc", "nasa7", "doduc", "ora"};
    std::vector<SweepJob> grid;
    for (const auto &m : studyModels())
        for (const auto &name : benches)
            grid.push_back({m, trace::profileByName(name), insts});
    return grid;
}

/** True when grid slot @p i carries an FP benchmark (last 3 of 6). */
bool
isFpSlot(std::size_t i)
{
    return i % 6 >= 3;
}

void
poisonedGridStorm(Count insts)
{
    const auto healthy = healthyGrid(insts);

    // Poison ~1/3 of the slots: FP slots get a wedged (validates but
    // never retires) machine for the watchdog, the rest get a config
    // fault for validate().
    std::vector<SweepJob> grid = healthy;
    std::vector<bool> bad(grid.size(), false);
    std::size_t wedges = 0, config_faults = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!fi::poisoned(STORM_SEED, i, POISON_FRACTION))
            continue;
        bad[i] = true;
        if (isFpSlot(i)) {
            grid[i].machine = fi::wedgeConfig(grid[i].machine);
            ++wedges;
        } else {
            grid[i].machine = fi::poisonConfig(
                grid[i].machine,
                fi::anyConfigFault(fi::mix64(STORM_SEED + i)));
            ++config_faults;
        }
    }
    std::cout << "storm grid: " << grid.size() << " jobs, " << wedges
              << " wedged, " << config_faults
              << " invalid configs\n";
    expect(wedges > 0 && config_faults > 0,
           "the storm contains both fault classes");

    SweepOptions base;
    base.base_seed = STORM_SEED;
    // A tight no-retirement window keeps the wedged jobs cheap; a
    // healthy run of this length never goes 3000 cycles without a
    // retirement.
    base.watchdog = WatchdogConfig{3000, 0};
    // This storm exercises the RUNTIME detectors (validate() in the
    // worker, the watchdog); the static preflight would reject the
    // grid before any of them ran. preflightStorm() covers that path.
    base.preflight = false;

    // All-healthy reference, then the storm at three worker counts.
    SweepRunner ref_runner(base);
    const auto reference = ref_runner.runOutcomes(healthy);

    for (unsigned workers : {1u, 2u, 8u}) {
        SweepOptions opts = base;
        opts.workers = workers;
        SweepRunner runner(opts);
        const auto outcomes = runner.runOutcomes(grid);

        bool healthy_identical = true;
        bool codes_match = true;
        std::size_t failed = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (bad[i]) {
                ++failed;
                const auto expected_code =
                    isFpSlot(i)
                        ? util::SimErrorCode::NoForwardProgress
                        : util::SimErrorCode::BadConfig;
                codes_match &= !outcomes[i].ok &&
                               outcomes[i].code == expected_code;
            } else {
                healthy_identical &=
                    outcomes[i].ok &&
                    sameRun(outcomes[i].result, reference[i].result);
            }
        }
        const std::string tag =
            " (workers=" + std::to_string(workers) + ")";
        expect(outcomes.size() == grid.size(),
               "storm ran to completion" + tag);
        expect(failed > 0 && codes_match,
               "every injected fault detected with its code" + tag);
        expect(healthy_identical,
               "healthy jobs bit-identical to all-healthy sweep" +
                   tag);
        expect(runner.report().failed_jobs == failed &&
                   runner.report().ok_jobs ==
                       grid.size() - failed,
               "report counts ok/failed jobs" + tag);
        if (workers == 8)
            std::cout << "  " << runner.report().summary() << "\n";
    }
}

void
preflightStorm(Count insts)
{
    // The same poisoned 18-job grid the runtime storm grinds
    // through, presented to a runner with the preflight pinned ON
    // (explicitly, so an AURORA_PREFLIGHT=0 environment — the obs
    // drill uses it — cannot disarm this section): the launch must
    // be rejected before any worker starts, with the report showing
    // zero jobs executed.
    std::vector<SweepJob> grid = healthyGrid(insts);
    std::size_t planted = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!fi::poisoned(STORM_SEED, i, POISON_FRACTION))
            continue;
        ++planted;
        if (isFpSlot(i))
            grid[i].machine = fi::wedgeConfig(grid[i].machine);
        else
            grid[i].machine = fi::poisonConfig(
                grid[i].machine,
                fi::anyConfigFault(fi::mix64(STORM_SEED + i)));
    }

    SweepOptions opts;
    opts.base_seed = STORM_SEED;
    opts.preflight = true;
    SweepRunner runner(opts);
    bool rejected = false;
    std::string message;
    try {
        runner.runOutcomes(grid);
    } catch (const util::SimError &e) {
        rejected = e.code() == util::SimErrorCode::BadConfig;
        message = e.what();
    }
    expect(rejected, "preflight rejects the poisoned grid");
    expect(message.find("preflight") != std::string::npos,
           "rejection names the preflight");
    expect(runner.report().jobs == 0,
           "no worker started: the report shows zero jobs");

    // Static-catch vs runtime-catch census over every fault mode.
    // The runtime detector column is what poisonedGridStorm and the
    // watchdog prove; the static column is the linter on the same
    // machine. The wedge is the headline: validate() passes it, the
    // watchdog needs the whole stall window, the graph check rejects
    // it instantly.
    std::size_t static_catches = 0;
    for (std::size_t k = 0; k < fi::NUM_CONFIG_FAULTS; ++k) {
        const auto fault = static_cast<fi::ConfigFault>(k);
        const bool caught =
            staticallyCaught(fi::poisonConfig(baselineModel(), fault));
        static_catches += caught ? 1 : 0;
        std::cout << "  fault " << fi::configFaultName(fault)
                  << ": static " << (caught ? "CAUGHT" : "missed")
                  << " | runtime validate()\n";
    }
    const bool wedge_static =
        staticallyCaught(fi::wedgeConfig(baselineModel()));
    static_catches += wedge_static ? 1 : 0;
    std::cout << "  fault wedge: static "
              << (wedge_static ? "CAUGHT" : "missed")
              << " | runtime watchdog (full stall window)\n";
    std::cout << "  static catches: " << static_catches << "/"
              << (fi::NUM_CONFIG_FAULTS + 1) << " fault modes ("
              << planted << " jobs planted in this grid)\n";
    expect(static_catches == fi::NUM_CONFIG_FAULTS + 1,
           "every config fault mode is caught statically");
}

void
traceCorruptionStorm()
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("aurora_fault_storm." +
                          std::to_string(::getpid()));
    fs::create_directories(dir);

    // A small but real trace to corrupt.
    trace::SyntheticWorkload workload(trace::espresso());
    std::vector<trace::Inst> insts;
    trace::Inst inst;
    for (int i = 0; i < 512 && workload.next(inst); ++i)
        insts.push_back(inst);
    const std::string pristine = (dir / "pristine.aur3").string();
    trace::writeTrace(pristine, insts);

    for (std::size_t k = 0; k < fi::NUM_TRACE_FAULTS; ++k) {
        const auto fault = static_cast<fi::TraceFault>(k);
        const std::string victim =
            (dir / (std::string("corrupt-") + fi::traceFaultName(fault) +
                    ".aur3"))
                .string();
        fs::copy_file(pristine, victim,
                      fs::copy_options::overwrite_existing);
        fi::corruptTraceFile(victim, fault, STORM_SEED);
        bool caught = false;
        try {
            trace::readTrace(victim);
        } catch (const util::SimError &e) {
            caught = e.code() == util::SimErrorCode::BadTrace;
        }
        expect(caught, std::string("trace fault '") +
                           fi::traceFaultName(fault) +
                           "' detected as BadTrace");
    }
    fs::remove_all(dir);
}

void
cycleBudgetStorm()
{
    constexpr Cycle BUDGET = 5000;
    Cycle tripped_at[2] = {0, 0};
    for (int round = 0; round < 2; ++round) {
        try {
            simulate(baselineModel(), trace::espresso(), 400'000,
                     WatchdogConfig{0, BUDGET});
        } catch (const WatchdogError &e) {
            if (e.code() == util::SimErrorCode::CycleBudgetExceeded)
                tripped_at[round] = e.diagnostic().cycle;
        }
    }
    expect(tripped_at[0] == BUDGET,
           "cycle budget trips exactly at the budget");
    expect(tripped_at[0] == tripped_at[1],
           "cycle budget trip is deterministic");
}

void
retryStorm(Count insts)
{
    // One transiently flaky task among healthy ones: it fails on its
    // first invocation only, as a crashed-and-respawned job would.
    std::atomic<unsigned> flaky_calls{0};
    std::vector<std::function<RunResult()>> tasks;
    for (int i = 0; i < 3; ++i)
        tasks.push_back([insts]() {
            return simulate(baselineModel(), trace::espresso(),
                            insts);
        });
    tasks.push_back([&flaky_calls, insts]() {
        if (flaky_calls.fetch_add(1) == 0)
            util::raiseError(util::SimErrorCode::Internal,
                             "transient storm failure");
        return simulate(baselineModel(), trace::li(), insts);
    });

    SweepOptions opts;
    opts.retries = 2;
    SweepRunner runner(opts);
    const auto outcomes = runner.runTaskOutcomes(tasks);
    expect(outcomes[3].ok && outcomes[3].attempts == 2,
           "flaky job recovered on its second attempt");
    expect(runner.report().retried_jobs == 1 &&
               runner.report().failed_jobs == 0,
           "report counts the retry");

    // Without a retry budget the same fault is terminal.
    std::atomic<unsigned> flaky_again{0};
    std::vector<std::function<RunResult()>> tasks2;
    tasks2.push_back([&flaky_again, insts]() {
        if (flaky_again.fetch_add(1) == 0)
            util::raiseError(util::SimErrorCode::Internal,
                             "transient storm failure");
        return simulate(baselineModel(), trace::li(), insts);
    });
    SweepOptions no_retry;
    no_retry.retries = 0;
    SweepRunner strict(no_retry);
    const auto strict_outcomes = strict.runTaskOutcomes(tasks2);
    expect(!strict_outcomes[0].ok &&
               strict_outcomes[0].attempts == 1,
           "without retries the transient fault is terminal");
}

void
journalResumeStorm(Count insts)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("aurora_journal_storm." +
                          std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string journal = (dir / "sweep.ajrn").string();

    const auto grid = healthyGrid(insts);
    const std::size_t n = grid.size();

    SweepOptions base;
    base.base_seed = STORM_SEED;

    // Uninterrupted reference (no journal).
    SweepRunner ref_runner(base);
    const auto reference = ref_runner.runOutcomes(grid);

    // Child process runs the journaled sweep and SIGKILLs itself the
    // moment half the grid has been flushed — the honest equivalent
    // of a machine dying overnight: no destructors, no atexit, at
    // most one torn record.
    const pid_t child = ::fork();
    expect(child >= 0, "fork() for the mid-grid kill");
    if (child == 0) {
        SweepOptions opts = base;
        opts.workers = 2;
        opts.journal = journal;
        opts.progress_every = 1;
        opts.on_progress = [n](const SweepProgress &p) {
            if (p.done >= n / 2)
                ::kill(::getpid(), SIGKILL);
        };
        SweepRunner runner(opts);
        runner.runOutcomes(grid);
        ::_exit(0); // unreachable: the hook killed us mid-grid
    }
    int status = 0;
    ::waitpid(child, &status, 0);
    expect(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
           "sweep process died by SIGKILL mid-grid");

    const auto loaded = loadJournal(journal);
    expect(loaded.jobs == n && !loaded.records.empty() &&
               loaded.records.size() < n,
           "journal holds a strict subset of the grid (" +
               std::to_string(loaded.records.size()) + "/" +
               std::to_string(n) + " jobs)");

    for (unsigned workers : {1u, 2u, 8u}) {
        const std::string tag =
            " (workers=" + std::to_string(workers) + ")";
        // Resume a fresh copy per worker count so each one faces the
        // same half-written journal.
        const std::string copy =
            (dir / ("resume-" + std::to_string(workers) + ".ajrn"))
                .string();
        fs::copy_file(journal, copy,
                      fs::copy_options::overwrite_existing);

        SweepOptions opts = base;
        opts.workers = workers;
        opts.journal = copy;
        opts.resume = true;
        SweepRunner runner(opts);
        const auto outcomes = runner.runOutcomes(grid);

        bool identical = true;
        std::size_t resumed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            identical &= outcomes[i].ok &&
                         sameRun(outcomes[i].result,
                                 reference[i].result);
            resumed += outcomes[i].resumed ? 1 : 0;
        }
        expect(identical,
               "resumed sweep bit-identical to uninterrupted" + tag);
        expect(resumed > 0 && resumed < n &&
                   runner.report().resumed_jobs == resumed &&
                   runner.report().ok_jobs == n,
               "report counts replayed jobs" + tag);

        // And the resumed journal is now complete: resuming again
        // replays everything without executing a single job.
        SweepRunner again(opts);
        const auto replayed = again.runOutcomes(grid);
        bool all_replayed = true;
        for (const auto &out : replayed)
            all_replayed &= out.ok && out.resumed;
        expect(all_replayed && again.report().resumed_jobs == n,
               "second resume is a pure replay" + tag);
    }
    fs::remove_all(dir);
}

void
deadlineStorm(Count insts)
{
    // Three healthy jobs and one wedged machine that validates but
    // never retires. With the stall watchdog disabled, only the
    // wall-clock deadline can end the wedged run.
    std::vector<SweepJob> grid;
    for (int i = 0; i < 3; ++i)
        grid.push_back({baselineModel(), trace::espresso(), insts});
    grid.push_back(
        {fi::wedgeConfig(baselineModel()), trace::nasa7(), insts});

    SweepOptions opts;
    opts.base_seed = STORM_SEED;
    opts.workers = 4; // hung + healthy genuinely concurrent
    opts.watchdog = WatchdogConfig{0, 0}; // no stall/cycle policing
    // Generous: sanitizer builds slow the healthy jobs too, and only
    // the wedge may ever expire.
    opts.deadline_ms = 2000;
    opts.retries = 2; // must NOT apply to the timeout
    opts.preflight = false; // the wedge must reach a worker
    SweepRunner runner(opts);
    const auto outcomes = runner.runOutcomes(grid);

    expect(outcomes[0].ok && outcomes[1].ok && outcomes[2].ok,
           "healthy jobs complete despite the hung one");
    expect(!outcomes[3].ok &&
               outcomes[3].code == util::SimErrorCode::Timeout,
           "wedged job converted into a Timeout outcome");
    expect(outcomes[3].attempts == 1,
           "a timed-out job is not retried");
    const auto &report = runner.report();
    expect(report.timed_out_jobs == 1 && report.failed_jobs == 0,
           "report counts the timeout separately from failures");
    expect(report.jobs == report.ok_jobs + report.failed_jobs +
                              report.timed_out_jobs +
                              report.skipped_jobs,
           "job accounting balances (ok+failed+timed_out+skipped)");
    std::cout << "  " << report.summary() << "\n";
}

void
timelineStorm(Count insts)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("aurora_timeline_storm." +
                          std::to_string(::getpid()));
    fs::create_directories(dir);

    // Act 2's grid names the trace; one span log across both acts,
    // so retry, timeout, and resume spans land in a single causal
    // trace-event artifact.
    std::vector<SweepJob> grid;
    for (const auto *name : {"espresso", "li"})
        grid.push_back(
            {baselineModel(), trace::profileByName(name), insts});
    const std::uint64_t trace_id =
        obs::traceIdForGrid(gridFingerprint(grid, STORM_SEED));
    obs::SpanLog spans(obs::TraceContext{trace_id});

    // Act 1: two healthy tasks, one transiently flaky one (retry
    // recovers it), and one wedged machine under a short wall-clock
    // deadline (converted to Timeout by the in-task watchdog).
    std::atomic<unsigned> flaky_calls{0};
    std::vector<std::function<RunResult()>> tasks;
    for (int i = 0; i < 2; ++i)
        tasks.push_back([insts]() {
            return simulate(baselineModel(), trace::espresso(),
                            insts);
        });
    tasks.push_back([&flaky_calls, insts]() {
        if (flaky_calls.fetch_add(1) == 0)
            util::raiseError(util::SimErrorCode::Internal,
                             "transient timeline failure");
        return simulate(baselineModel(), trace::li(), insts);
    });
    tasks.push_back([insts]() {
        return simulate(fi::wedgeConfig(baselineModel()),
                        trace::nasa7(), insts,
                        WatchdogConfig{0, 0, 500});
    });

    SweepOptions opts;
    opts.base_seed = STORM_SEED;
    opts.workers = 4;
    opts.retries = 2;
    opts.span_log = &spans;
    SweepRunner runner(opts);
    const auto outcomes = runner.runTaskOutcomes(tasks);
    expect(outcomes[2].ok && outcomes[2].attempts == 2,
           "timeline storm: flaky job recovered on retry");
    expect(!outcomes[3].ok &&
               outcomes[3].code == util::SimErrorCode::Timeout,
           "timeline storm: wedged job timed out");

    // Act 2: a journaled mini-sweep run to completion, then resumed
    // into the same span log — every job replays as an instant.
    // Its job ids continue after act 1's so every span id is unique.
    const std::string journal = (dir / "timeline.ajrn").string();
    {
        SweepOptions jopts;
        jopts.base_seed = STORM_SEED;
        jopts.journal = journal;
        SweepRunner first(jopts);
        first.runOutcomes(grid);
    }
    SweepOptions ropts;
    ropts.base_seed = STORM_SEED;
    ropts.journal = journal;
    ropts.resume = true;
    ropts.span_log = &spans;
    ropts.span_job_base = tasks.size();
    SweepRunner replayer(ropts);
    replayer.runOutcomes(grid);

    // The artifact must witness every attempt outcome the storm
    // produced: ok = no error, timeout = a "[Timeout]" error,
    // resumed = an instant.
    std::size_t retried = 0, timed_out = 0, resumed = 0;
    for (const auto &span : spans.spans()) {
        if (span.cat != "attempt")
            continue;
        retried += span.error.empty() && span.attempt == 2;
        timed_out += span.error.rfind("[Timeout]", 0) == 0;
        resumed += span.instant;
    }
    expect(retried == 1, "timeline records the retry span (attempt 2)");
    expect(timed_out == 1, "timeline records the timeout span");
    expect(resumed == grid.size(),
           "timeline records every resumed replay");

    // Emit the trace-event artifact. AURORA_TIMELINE_OUT keeps it for
    // Perfetto; by default it lands in the scratch dir and is only
    // validated.
    const char *out_env = std::getenv("AURORA_TIMELINE_OUT");
    const std::string artifact =
        out_env && *out_env ? std::string(out_env)
                            : (dir / "fault_storm_timeline.json")
                                  .string();
    {
        std::ofstream os(artifact);
        obs::writeGridTrace(os, spans.spans(), trace_id,
                            "fault storm sweep", /*pid=*/0,
                            spans.nowUs(), "bench_ext_fault_storm");
    }
    std::ifstream is(artifact);
    std::stringstream text;
    text << is.rdbuf();
    std::string parse_error;
    const auto doc =
        telemetry::parseJson(text.str(), &parse_error);
    expect(doc && doc->isObject() && doc->find("traceEvents") &&
               doc->find("traceEvents")->isArray(),
           "timeline artifact parses as a trace-event document" +
               (parse_error.empty() ? "" : " (" + parse_error + ")"));
    std::cout << "  timeline artifact: " << artifact << " ("
              << spans.size() + 1 << " spans)\n";

    // The scratch dir (journal + default artifact location) goes;
    // an AURORA_TIMELINE_OUT artifact lives outside it and survives.
    fs::remove_all(dir);
}

} // namespace

int
main()
{
    bench::banner("fault storm (robustness extension)");
    const Count insts = bench::runInsts();

    std::cout << "-- poisoned-grid isolation --\n";
    poisonedGridStorm(insts);
    std::cout << "\n-- static preflight --\n";
    preflightStorm(insts);
    std::cout << "\n-- trace corruption --\n";
    traceCorruptionStorm();
    std::cout << "\n-- cycle budget --\n";
    cycleBudgetStorm();
    std::cout << "\n-- retry policy --\n";
    retryStorm(insts / 10 ? insts / 10 : 1);
    std::cout << "\n-- journal + resume after SIGKILL --\n";
    journalResumeStorm(insts);
    std::cout << "\n-- wall-clock deadline --\n";
    deadlineStorm(insts);
    std::cout << "\n-- sweep timeline artifact --\n";
    timelineStorm(insts / 10 ? insts / 10 : 1);

    std::cout << "\nfault storm: "
              << (failures ? "FAILED" : "all expectations met")
              << "\n";
    return failures ? 1 : 0;
}
