/**
 * @file
 * Sweep progress telemetry tests: the on_progress heartbeat fires on
 * a deterministic job-count cadence with consistent counters at any
 * worker count, classifies ok/failed/timed-out/retried jobs, and a
 * sweep's span log records one attempt span per attempt and one job
 * span per job on dense per-thread tracks, and renders as a valid
 * trace-event document.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/simulator.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "telemetry/json.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using namespace aurora::harness;

constexpr Count N = 5000;

std::vector<std::function<RunResult()>>
healthyTasks(std::size_t n)
{
    std::vector<std::function<RunResult()>> tasks;
    for (std::size_t i = 0; i < n; ++i)
        tasks.push_back([]() {
            return simulate(baselineModel(), trace::espresso(), N);
        });
    return tasks;
}

/** Thread-safe collector for heartbeat snapshots. */
struct ProgressLog
{
    std::mutex mutex;
    std::vector<SweepProgress> snapshots;

    std::function<void(const SweepProgress &)>
    callback()
    {
        return [this](const SweepProgress &p) {
            const std::lock_guard<std::mutex> lock(mutex);
            snapshots.push_back(p);
        };
    }
};

TEST(Progress, CadenceIsDeterministicAcrossWorkerCounts)
{
    constexpr std::size_t JOBS = 12;
    for (const unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ProgressLog log;
        SweepOptions opts;
        opts.workers = workers;
        opts.progress_every = 3;
        opts.on_progress = log.callback();
        SweepRunner runner(opts);
        runner.runTaskOutcomes(healthyTasks(JOBS));

        // Heartbeats at done = 3, 6, 9, 12 — a function of job
        // counts only, never of wall-clock time or thread schedule.
        ASSERT_EQ(log.snapshots.size(), JOBS / 3);
        std::size_t expected = 3;
        for (const SweepProgress &p : log.snapshots) {
            EXPECT_EQ(p.done, expected);
            EXPECT_EQ(p.total, JOBS);
            EXPECT_EQ(p.ok, p.done);
            EXPECT_EQ(p.failed, 0u);
            EXPECT_EQ(p.timed_out, 0u);
            EXPECT_GE(p.elapsed_seconds, 0.0);
            EXPECT_GE(p.eta_seconds, 0.0);
            expected += 3;
        }
        const SweepProgress &last = log.snapshots.back();
        EXPECT_EQ(last.done, last.total);
        EXPECT_EQ(last.eta_seconds, 0.0);
    }
}

TEST(Progress, DefaultCadenceAlwaysReportsCompletion)
{
    // progress_every = 0 derives a ~5% cadence; whatever it picks,
    // the final heartbeat must be done == total.
    ProgressLog log;
    SweepOptions opts;
    opts.workers = 2;
    opts.on_progress = log.callback();
    SweepRunner runner(opts);
    runner.runTaskOutcomes(healthyTasks(7));
    ASSERT_FALSE(log.snapshots.empty());
    EXPECT_EQ(log.snapshots.back().done, 7u);
    EXPECT_EQ(log.snapshots.back().total, 7u);
}

TEST(Progress, ClassifiesFailuresRetriesAndTimeouts)
{
    auto tasks = healthyTasks(2);
    // A terminal failure...
    tasks.push_back([]() -> RunResult {
        util::raiseError(util::SimErrorCode::Internal, "boom");
    });
    // ...a transient one that retry recovers...
    auto flaky_calls = std::make_shared<std::atomic<unsigned>>(0);
    tasks.push_back([flaky_calls]() {
        if (flaky_calls->fetch_add(1) == 0)
            util::raiseError(util::SimErrorCode::Internal,
                             "transient");
        return simulate(baselineModel(), trace::li(), N);
    });
    // ...and a timeout (never retried).
    tasks.push_back([]() -> RunResult {
        util::raiseError(util::SimErrorCode::Timeout, "deadline");
    });

    ProgressLog log;
    SweepOptions opts;
    opts.workers = 2;
    opts.retries = 1;
    opts.progress_every = 1;
    opts.on_progress = log.callback();
    SweepRunner runner(opts);
    const auto outcomes = runner.runTaskOutcomes(tasks);

    ASSERT_EQ(log.snapshots.size(), tasks.size());
    const SweepProgress &last = log.snapshots.back();
    EXPECT_EQ(last.done, tasks.size());
    EXPECT_EQ(last.ok, 3u);
    EXPECT_EQ(last.failed, 1u);
    EXPECT_EQ(last.timed_out, 1u);
    // Retried == jobs that needed more than one attempt: the flaky
    // job that recovered AND the terminal failure that burned its
    // retry budget (same semantics as SweepReport::retried_jobs).
    EXPECT_EQ(last.retried, 2u);
    EXPECT_TRUE(outcomes[3].ok);
    EXPECT_EQ(outcomes[3].attempts, 2u);

    // The rendered heartbeat line carries the same numbers.
    const std::string line = last.toString();
    EXPECT_NE(line.find("sweep progress: 5/5 done"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("retried 2"), std::string::npos) << line;
}

TEST(Progress, HeartbeatsNeverPerturbResults)
{
    // The same grid with and without a callback, at several worker
    // counts: cycle counts must be bit-identical.
    std::vector<SweepJob> grid;
    for (const char *bench : {"espresso", "li", "nasa7"})
        grid.push_back(
            {baselineModel(), trace::profileByName(bench), N});
    SweepOptions plain_opts;
    plain_opts.workers = 1;
    SweepRunner plain(plain_opts);
    const auto reference = plain.run(grid);

    for (const unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ProgressLog log;
        SweepOptions opts;
        opts.workers = workers;
        opts.progress_every = 1;
        opts.on_progress = log.callback();
        SweepRunner runner(opts);
        const auto outcomes = runner.runOutcomes(grid);
        ASSERT_EQ(outcomes.size(), reference.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_TRUE(outcomes[i].ok);
            EXPECT_EQ(outcomes[i].result.cycles,
                      reference[i].cycles);
            EXPECT_EQ(outcomes[i].result.instructions,
                      reference[i].instructions);
        }
        EXPECT_EQ(log.snapshots.size(), grid.size());
    }
}

TEST(SpanLog, RecordsOneSpanPerAttemptWithDenseTrackIds)
{
    auto tasks = healthyTasks(3);
    auto flaky_calls = std::make_shared<std::atomic<unsigned>>(0);
    tasks.push_back([flaky_calls]() {
        if (flaky_calls->fetch_add(1) == 0)
            util::raiseError(util::SimErrorCode::Internal,
                             "transient");
        return simulate(baselineModel(), trace::li(), N);
    });

    obs::SpanLog log;
    SweepOptions opts;
    opts.workers = 2;
    opts.retries = 1;
    opts.span_log = &log;
    SweepRunner runner(opts);
    runner.runTaskOutcomes(tasks);

    // 3 healthy attempts + failed attempt + retry attempt, and one
    // job span per job.
    std::size_t attempts = 0, jobs = 0, failed = 0, second_attempts = 0;
    for (const obs::Span &span : log.spans()) {
        EXPECT_GE(span.dur_us, 0.0);
        EXPECT_LT(span.tid, 2u);
        EXPECT_TRUE(span.has_job);
        if (span.cat == "job") {
            ++jobs;
            continue;
        }
        ASSERT_EQ(span.cat, "attempt");
        ++attempts;
        failed += !span.error.empty();
        second_attempts += span.attempt == 2;
    }
    EXPECT_EQ(attempts, 5u);
    EXPECT_EQ(jobs, 4u);
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(second_attempts, 1u);
}

TEST(SpanLog, TrackIdsAreDensePerThread)
{
    obs::SpanLog log;
    const std::uint32_t mine = log.trackId();
    EXPECT_EQ(mine, 0u);
    EXPECT_EQ(log.trackId(), mine); // stable for the same thread
    // Both threads stay alive until both hold an id (a joined
    // thread's id may be reused by the next one).
    std::latch assigned(2);
    std::uint32_t ids[2] = {};
    std::thread a([&] {
        ids[0] = log.trackId();
        assigned.arrive_and_wait();
    });
    std::thread b([&] {
        ids[1] = log.trackId();
        assigned.arrive_and_wait();
    });
    a.join();
    b.join();
    EXPECT_EQ((std::set<std::uint32_t>{ids[0], ids[1]}),
              (std::set<std::uint32_t>{1, 2}));
}

TEST(SpanLog, OneJobRunnersShareOneTrackPerWorkerThread)
{
    // The service's shape: many one-job sweeps, executed by a small
    // pool of threads, all recording into one grid-wide log.
    obs::SpanLog log;
    std::vector<SweepJob> grid;
    for (int i = 0; i < 6; ++i)
        grid.push_back({baselineModel(), trace::espresso(), N});
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < 2; ++t)
        pool.emplace_back([&, t] {
            for (std::size_t i = t; i < grid.size(); i += 2) {
                SweepOptions policy;
                policy.span_log = &log;
                runJob(grid[i], i, policy);
            }
        });
    for (std::thread &thread : pool)
        thread.join();

    std::set<std::uint32_t> tracks;
    std::set<std::uint64_t> jobs;
    for (const obs::Span &span : log.spans()) {
        tracks.insert(span.tid);
        jobs.insert(span.job);
    }
    EXPECT_EQ(tracks, (std::set<std::uint32_t>{0, 1}));
    EXPECT_EQ(jobs.size(), grid.size()); // span job id = index
}

TEST(SpanLog, RendersAsValidTraceEventDocument)
{
    obs::SpanLog log(obs::TraceContext{obs::traceIdForGrid(7)});
    SweepOptions opts;
    opts.workers = 2;
    opts.span_log = &log;
    SweepRunner runner(opts);
    runner.runTaskOutcomes(healthyTasks(4));

    std::ostringstream os;
    obs::writeGridTrace(os, log.spans(), log.context().trace_id,
                        "progress test sweep", /*pid=*/0, log.nowUs(),
                        "test");
    std::string error;
    const auto doc = telemetry::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const auto *events = doc->find("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    // Spans are sorted per worker track with non-decreasing starts.
    double last_ts = -1.0;
    double last_tid = -1.0;
    std::map<std::string, std::size_t> by_cat;
    for (const auto &e : events->array) {
        if (e.find("ph")->string == "M")
            continue;
        ASSERT_EQ(e.find("ph")->string, "X");
        ++by_cat[e.find("cat")->string];
        const double tid = e.find("tid")->number;
        const double ts = e.find("ts")->number;
        if (tid == last_tid) {
            EXPECT_GE(ts, last_ts);
        }
        last_tid = tid;
        last_ts = ts;
        EXPECT_GE(e.find("dur")->number, 0.0);
        // Healthy attempts carry no error arg.
        EXPECT_EQ(e.find("args")->find("error"), nullptr);
    }
    EXPECT_EQ(by_cat, (std::map<std::string, std::size_t>{
                          {"attempt", 4}, {"grid", 1}, {"job", 4}}));
}

} // namespace
