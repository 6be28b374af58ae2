/**
 * @file
 * Causal-span tests: id-derivation invariants (nonzero, domain
 * separation, cross-process agreement), the span file's torn-tail /
 * corruption-offset contract, the spans a real SweepRunner records
 * under both parent schemes (worker-pool job parents, shard dispatch
 * parents) and their inertness, and Chrome-trace rendering with hex
 * id args.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "core/simulator.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "trace/spec_profiles.hh"
#include "util/sim_error.hh"
#include "test_tmp.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;
using aurora::util::SimError;

using aurora::test::tempPath;

TEST(ObsIds, AllDerivedIdsAreNonzeroAndDistinct)
{
    const std::uint64_t trace = obs::traceIdForGrid(0x1234);
    ASSERT_NE(trace, 0u);
    std::set<std::uint64_t> ids;
    ids.insert(obs::rootSpanId(trace));
    ids.insert(obs::stageSpanId(trace, "admission"));
    ids.insert(obs::stageSpanId(trace, "swarm"));
    ids.insert(obs::stageSpanId(trace, "merge"));
    for (std::uint64_t j = 0; j < 8; ++j) {
        ids.insert(obs::jobSpanId(trace, j));
        ids.insert(obs::attemptSpanId(trace, j, 1));
        ids.insert(obs::attemptSpanId(trace, j, 2));
        ids.insert(obs::attemptSpanId(trace, j, 1, /*epoch=*/3));
        ids.insert(obs::leaseSpanId(trace, j));
        ids.insert(obs::dispatchSpanId(trace, j, 1));
    }
    // Domain separation: job 5, lease epoch 5, dispatch of job 5 all
    // hash apart; every id is distinct and none is the 0 sentinel.
    EXPECT_EQ(ids.size(), 4u + 8u * 6u);
    EXPECT_EQ(ids.count(0), 0u);
}

TEST(ObsIds, DerivationIsPureAcrossProcesses)
{
    // The whole protocol: a coordinator and a shard that share only
    // the trace id must compute identical span ids.
    const std::uint64_t fp = 0xfeedfacecafebeefull;
    EXPECT_EQ(obs::traceIdForGrid(fp), obs::traceIdForGrid(fp));
    const std::uint64_t trace = obs::traceIdForGrid(fp);
    EXPECT_EQ(obs::dispatchSpanId(trace, 7, 2),
              obs::dispatchSpanId(trace, 7, 2));
    EXPECT_NE(obs::dispatchSpanId(trace, 7, 2),
              obs::dispatchSpanId(trace, 7, 3));
    EXPECT_NE(obs::traceIdForGrid(fp), obs::traceIdForGrid(fp + 1));
}

TEST(ObsIds, HexIdRendersFixedWidth)
{
    EXPECT_EQ(obs::hexId(0), "0x0000000000000000");
    EXPECT_EQ(obs::hexId(0x1a2b), "0x0000000000001a2b");
    EXPECT_EQ(obs::hexId(0xffffffffffffffffull),
              "0xffffffffffffffff");
}

obs::Span
sampleSpan(std::uint64_t trace, std::uint64_t job)
{
    obs::Span s;
    s.trace_id = trace;
    s.span_id = obs::jobSpanId(trace, job);
    s.parent_id = obs::rootSpanId(trace);
    s.name = "espresso@baseline";
    s.cat = "attempt";
    s.pid = 101;
    s.tid = 2;
    s.ts_us = 1500.0;
    s.dur_us = 250.0;
    s.job = job;
    s.has_job = true;
    s.attempt = 1;
    return s;
}

TEST(SpanFile, RoundTripsThroughWriterAndLoader)
{
    const std::string path = tempPath("spans_roundtrip.ndjson");
    const std::uint64_t trace = obs::traceIdForGrid(42);
    {
        obs::SpanFileWriter writer(path);
        for (std::uint64_t j = 0; j < 3; ++j)
            writer.append(sampleSpan(trace, j));
    }
    const auto loaded = obs::loadSpanFile(path);
    EXPECT_FALSE(loaded.dropped_tail);
    ASSERT_EQ(loaded.spans.size(), 3u);
    EXPECT_EQ(loaded.spans[0].trace_id, trace);
    EXPECT_EQ(loaded.spans[1].span_id, obs::jobSpanId(trace, 1));
    EXPECT_EQ(loaded.spans[2].parent_id, obs::rootSpanId(trace));
    EXPECT_EQ(loaded.spans[0].name, "espresso@baseline");
    EXPECT_EQ(loaded.spans[0].pid, 101u);
    EXPECT_TRUE(loaded.spans[0].has_job);
    EXPECT_DOUBLE_EQ(loaded.spans[0].ts_us, 1500.0);
}

TEST(SpanFile, TornTailDroppedButMidFileCorruptionRaises)
{
    const std::string path = tempPath("spans_torn.ndjson");
    const std::uint64_t trace = obs::traceIdForGrid(7);
    {
        obs::SpanFileWriter writer(path);
        writer.append(sampleSpan(trace, 0));
        writer.append(sampleSpan(trace, 1));
    }
    // Crash mid-append: half a line at EOF is dropped, not fatal.
    const auto size = fs::file_size(path);
    fs::resize_file(path, size - 7);
    const auto loaded = obs::loadSpanFile(path);
    EXPECT_TRUE(loaded.dropped_tail);
    ASSERT_EQ(loaded.spans.size(), 1u);

    // The same bytes *followed by a valid line* are corruption, and
    // the error names the byte offset.
    {
        std::ofstream out(path, std::ios::app);
        out << "\n" << obs::spanJsonLine(sampleSpan(trace, 2)) << "\n";
    }
    try {
        obs::loadSpanFile(path);
        FAIL() << "mid-file corruption must raise";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
}

TEST(SpanFile, MissingFileRaises)
{
    EXPECT_THROW(obs::loadSpanFile(tempPath("no_such.spans")),
                 SimError);
}

constexpr Count SPAN_INSTS = 3000;

std::vector<harness::SweepJob>
smallGrid()
{
    std::vector<harness::SweepJob> grid;
    for (const char *name : {"espresso", "li", "eqntott", "compress"})
        grid.push_back({core::baselineModel(),
                        trace::profileByName(name), SPAN_INSTS});
    return grid;
}

const obs::Span *
findSpan(const std::vector<obs::Span> &spans, std::uint64_t id)
{
    for (const obs::Span &span : spans)
        if (span.span_id == id)
            return &span;
    return nullptr;
}

TEST(SweepSpans, WorkerPoolAttemptsParentToJobSpansUnderTheRoot)
{
    const std::uint64_t trace = obs::traceIdForGrid(99);
    obs::SpanLog log(obs::TraceContext{trace});

    // Jobs 0-2: healthy, flaky (recovers on attempt 2), timed out.
    auto flaky_calls = std::make_shared<std::atomic<unsigned>>(0);
    std::vector<std::function<core::RunResult()>> tasks = {
        [] {
            return core::simulate(core::baselineModel(),
                                  trace::espresso(), SPAN_INSTS);
        },
        [flaky_calls] {
            if (flaky_calls->fetch_add(1) == 0)
                util::raiseError(util::SimErrorCode::Internal,
                                 "transient");
            return core::simulate(core::baselineModel(), trace::li(),
                                  SPAN_INSTS);
        },
        []() -> core::RunResult {
            util::raiseError(util::SimErrorCode::Timeout,
                             "deadline expired");
        },
    };
    harness::SweepOptions opts;
    opts.workers = 2;
    opts.retries = 1;
    opts.span_log = &log;
    harness::SweepRunner(opts).runTaskOutcomes(tasks);

    // Jobs 3-6: a journaled grid, then resumed into the same log —
    // every job replays as an instant.
    const std::string journal = tempPath("sweep_spans.ajrn");
    fs::remove(journal);
    harness::SweepOptions jopts;
    jopts.workers = 1;
    jopts.journal = journal;
    harness::SweepRunner(jopts).runOutcomes(smallGrid());
    jopts.resume = true;
    jopts.span_log = &log;
    jopts.span_jobs.resize(smallGrid().size());
    std::iota(jopts.span_jobs.begin(), jopts.span_jobs.end(),
              tasks.size());
    harness::SweepRunner(jopts).runOutcomes(smallGrid());
    fs::remove(journal);

    const std::vector<obs::Span> spans = log.spans();
    // 4 attempts (job 1 twice) + 3 job spans + 4 replays + 4 jobs.
    ASSERT_EQ(spans.size(), 15u);
    for (const obs::Span &span : spans) {
        EXPECT_EQ(span.trace_id, trace);
        EXPECT_EQ(span.pid, 0u);
        ASSERT_TRUE(span.has_job);
        if (span.cat == "job") {
            EXPECT_EQ(span.span_id, obs::jobSpanId(trace, span.job));
            EXPECT_EQ(span.parent_id, obs::rootSpanId(trace));
        } else {
            ASSERT_EQ(span.cat, "attempt");
            EXPECT_EQ(span.span_id,
                      obs::attemptSpanId(trace, span.job, span.attempt));
            EXPECT_EQ(span.parent_id, obs::jobSpanId(trace, span.job));
            // Parentage closes inside the log (plus the root).
            EXPECT_NE(findSpan(spans, span.parent_id), nullptr);
        }
    }

    const obs::Span *retry =
        findSpan(spans, obs::attemptSpanId(trace, 1, 2));
    ASSERT_NE(retry, nullptr);
    EXPECT_TRUE(retry->error.empty()); // ok = no error
    const obs::Span *failed =
        findSpan(spans, obs::attemptSpanId(trace, 1, 1));
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->error.rfind("[Internal]", 0), 0u);
    const obs::Span *timeout =
        findSpan(spans, obs::attemptSpanId(trace, 2, 1));
    ASSERT_NE(timeout, nullptr);
    EXPECT_EQ(timeout->error.rfind("[Timeout]", 0), 0u);
    EXPECT_EQ(findSpan(spans, obs::attemptSpanId(trace, 2, 2)), nullptr);

    for (std::uint64_t job = 3; job < 7; ++job) {
        const obs::Span *replay =
            findSpan(spans, obs::attemptSpanId(trace, job, 0));
        ASSERT_NE(replay, nullptr);
        EXPECT_TRUE(replay->instant);
        EXPECT_EQ(replay->attempt, 0u);
        EXPECT_TRUE(replay->error.empty());
    }
}

TEST(SweepSpans, ShardAttemptsParentToTheDispatchSpan)
{
    const std::uint64_t trace = obs::traceIdForGrid(99);
    const std::uint64_t epoch = 2;
    const std::uint64_t dispatch = obs::dispatchSpanId(trace, 10, epoch);
    obs::SpanLog log(obs::TraceContext{
        trace, static_cast<std::uint32_t>(100 + epoch), epoch, dispatch});
    harness::SweepOptions policy;
    policy.span_log = &log;
    const harness::JournalRecord rec =
        harness::runJob(smallGrid()[1], /*index=*/5, policy);
    ASSERT_TRUE(rec.outcome.ok);

    // The dispatch span stands in for the job span: one attempt only.
    const std::vector<obs::Span> spans = log.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].cat, "attempt");
    EXPECT_EQ(spans[0].parent_id, dispatch);
    EXPECT_EQ(spans[0].job, 5u);
    // Epoch-qualified attempt ids: the same job+attempt on another
    // incarnation is a distinct span.
    EXPECT_EQ(spans[0].span_id, obs::attemptSpanId(trace, 5, 1, epoch));
    EXPECT_NE(spans[0].span_id, obs::attemptSpanId(trace, 5, 1));
    EXPECT_EQ(spans[0].pid, 102u);
}

TEST(SweepSpans, OutcomesAreByteIdenticalWithAndWithoutSpanLog)
{
    for (const unsigned workers : {1u, 4u}) {
        harness::SweepOptions opts;
        opts.workers = workers;
        opts.base_seed = 17;
        const auto plain = harness::SweepRunner(opts).runOutcomes(
            smallGrid());
        obs::SpanLog log(obs::TraceContext{obs::traceIdForGrid(3)});
        opts.span_log = &log;
        const auto traced = harness::SweepRunner(opts).runOutcomes(
            smallGrid());
        EXPECT_EQ(log.size(), 2 * smallGrid().size());
        ASSERT_EQ(plain.size(), traced.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            ASSERT_TRUE(plain[i].ok && traced[i].ok);
            EXPECT_EQ(harness::runResultBytes(plain[i].result),
                      harness::runResultBytes(traced[i].result))
                << "job " << i << " at " << workers << " workers";
        }
    }
}

TEST(ChromeTrace, RendersHexIdArgsAndProcessNames)
{
    const std::uint64_t trace = obs::traceIdForGrid(5);
    obs::Span root;
    root.trace_id = trace;
    root.span_id = obs::rootSpanId(trace);
    root.name = "grid";
    root.cat = "grid";
    root.pid = 1;
    root.dur_us = 5000.0;
    std::vector<obs::Span> spans{root, sampleSpan(trace, 0)};
    spans[1].pid = 101;

    std::ostringstream os;
    obs::writeChromeTrace(os, spans,
                          {{1, "aurora_swarm"},
                           {101, "aurora_shardd e1"}});
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find(obs::hexId(trace)), std::string::npos);
    EXPECT_NE(doc.find("\"parent_id\":\"" + obs::hexId(trace) + "\""),
              std::string::npos);
    EXPECT_NE(doc.find("aurora_shardd e1"), std::string::npos);
    // The root's parent renders as the zero sentinel, not omitted.
    EXPECT_NE(doc.find("0x0000000000000000"), std::string::npos);
}

TEST(SpanLog, CollectsConcurrentlyAndSnapshots)
{
    const std::uint64_t trace = obs::traceIdForGrid(3);
    obs::SpanLog log;
    log.add(sampleSpan(trace, 0));
    log.addAll({sampleSpan(trace, 1), sampleSpan(trace, 2)});
    EXPECT_EQ(log.size(), 3u);
    const auto spans = log.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[2].span_id, obs::jobSpanId(trace, 2));
}

} // namespace
