/**
 * @file
 * Causal spans: the cross-process half of the tracing plane.
 *
 * A Span is one parented interval (or instant) of a grid's life —
 * admission, queue wait, dispatch, a shard attempt, a lease epoch,
 * the merge. Every process collects its spans locally (SpanLog in
 * memory, SpanFileWriter as crash-durable NDJSON `aurora.spans.v1`
 * lines) and the grid's owner folds them into one Chrome trace with
 * writeChromeTrace(). Parentage is by derived ids (obs/ids.hh), so
 * folding is pure concatenation — no cross-process id fixup.
 *
 * Timestamps are each recording process's own steady-clock
 * milliseconds; tracks are keyed (pid, tid) so per-track monotonicity
 * holds even though processes' clocks are not aligned.
 *
 * The span file format follows the journal's durability contract: one
 * flushed line per span, a torn tail (crash mid-write) is detected
 * and dropped by loadSpanFile(), mid-file corruption is an error.
 */

#ifndef AURORA_OBS_TRACE_HH
#define AURORA_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/stats.hh"

namespace aurora::obs
{

/** One parented interval (or instant) of a traced grid. */
struct Span
{
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    /** 0 = root (no parent). */
    std::uint64_t parent_id = 0;
    /** Display name ("grid", "lease e3", "espresso@baseline", ...). */
    std::string name;
    /** Stable category: admission|queue|dispatch|attempt|lease|
     *  migrate|merge|grid|... (doubles as the Chrome trace cat). */
    std::string cat;
    /** Trace-view process track (0 = serve, 1 = swarm, 100+e = shard
     *  epoch e). */
    std::uint32_t pid = 0;
    /** Thread track within the process. */
    std::uint32_t tid = 0;
    /** Microseconds on the recording process's steady clock
     *  (1 wall ms = 1000 trace µs). */
    double ts_us = 0.0;
    double dur_us = 0.0;
    /** Zero-length marker event (journal replay, migration, ...). */
    bool instant = false;
    /** Grid job index; meaningful when has_job. */
    std::uint64_t job = 0;
    bool has_job = false;
    /** Attempt number for attempt spans (0 otherwise). */
    std::uint32_t attempt = 0;
    /** Failure text for failed/timeout attempt spans. */
    std::string error;
};

/**
 * Where a sweep's spans hang in a grid's trace. Attempt k of grid job
 * j gets id attemptSpanId(trace_id, j, k, epoch); its parent is
 * @p parent_id when set (a shard's dispatch span), otherwise the
 * job's own jobSpanId, itself parented to the grid root.
 */
struct TraceContext
{
    std::uint64_t trace_id = 0;
    /** Process track (0 = serve or a local sweep, 100+e = shard
     *  epoch e). */
    std::uint32_t pid = 0;
    /** Shard incarnation the attempts ran on (0 off the fleet). */
    std::uint64_t epoch = 0;
    /** Explicit parent of every attempt (0 = per-job spans). */
    std::uint64_t parent_id = 0;
};

/**
 * Thread-safe in-memory span collector with its own clock (µs since
 * construction) and a dense calling-thread → track map, so the spans
 * one-job sweeps record from a worker pool land one track per thread.
 * SweepRunner records its attempt and job spans here (addAttempt /
 * addJob) under the log's TraceContext.
 */
class SpanLog
{
  public:
    explicit SpanLog(TraceContext context = {}) : context_(context) {}

    const TraceContext &context() const { return context_; }

    /** Microseconds since construction (the log's trace epoch). */
    double nowUs() const { return timer_.seconds() * 1e6; }

    /** Dense track id of the calling thread (first call assigns). */
    std::uint32_t trackId();

    void add(Span span);

    /** Append a whole batch (shard span-file fold-in). */
    void addAll(const std::vector<Span> &spans);

    /**
     * Record attempt @p attempt of grid job @p job over
     * [@p start_us, @p end_us] on the calling thread's track; attempt
     * 0 is a journal replay, drawn as an instant. A non-empty
     * @p error is the attempt's SimError::what().
     */
    void addAttempt(std::uint64_t job, std::uint32_t attempt,
                    std::string name, double start_us, double end_us,
                    std::string error = {});

    /** Record the span of grid job @p job covering all its attempts,
     *  under the grid root — unless the context names an explicit
     *  parent, which then stands in for it. */
    void addJob(std::uint64_t job, std::string name, double start_us,
                double end_us);

    std::vector<Span> spans() const;
    std::size_t size() const;

  private:
    /** A span of the context's trace on the calling thread's track. */
    Span contextSpan(std::uint64_t job, std::string name,
                     double start_us, double end_us);

    const TraceContext context_;
    const WallTimer timer_;
    mutable std::mutex mutex_;
    std::map<std::thread::id, std::uint32_t> tracks_;
    std::vector<Span> spans_;
};

/** One `aurora.spans.v1` NDJSON line (no trailing newline). */
std::string spanJsonLine(const Span &span);

/**
 * Append-only crash-durable span sink: one flushed NDJSON line per
 * span. Shards write their attempt spans through this so a SIGKILLed
 * worker's completed spans survive for the coordinator's fold-in.
 */
class SpanFileWriter
{
  public:
    /** Opens (truncates) @p path; raises SimError(BadTrace) on
     *  failure. */
    explicit SpanFileWriter(const std::string &path);
    ~SpanFileWriter();

    SpanFileWriter(const SpanFileWriter &) = delete;
    SpanFileWriter &operator=(const SpanFileWriter &) = delete;

    /** Render, write, flush one span. */
    void append(const Span &span);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
};

/** loadSpanFile() result. */
struct LoadedSpans
{
    std::vector<Span> spans;
    /** A torn trailing line (crash mid-append) was dropped. */
    bool dropped_tail = false;
};

/**
 * Read an `aurora.spans.v1` file back. A torn final line — no
 * newline, or unparseable JSON at EOF — is dropped (dropped_tail);
 * malformed JSON elsewhere raises SimError(BadTrace) with the byte
 * offset. A missing file raises SimError(BadTrace).
 */
LoadedSpans loadSpanFile(const std::string &path);

/** (pid, display name) pair for the trace's process directory. */
struct ProcessName
{
    std::uint32_t pid = 0;
    std::string name;
};

/**
 * Render spans as one Chrome trace-event document. Spans are sorted
 * by (pid, tid, ts, span id) so every track is time-monotone; each
 * event carries trace_id/span_id/parent_id as 0x-hex string args
 * (u64 ids do not survive JSON doubles) plus job/attempt/error when
 * set.
 */
void writeChromeTrace(std::ostream &os, const std::vector<Span> &spans,
                      const std::vector<ProcessName> &processes);

/**
 * Write one grid's whole causal trace: @p spans plus the grid root
 * span (id = trace id, parent 0, cat "grid") named @p name on track
 * @p pid over [0, @p dur_us], rendered by writeChromeTrace with the
 * fleet's process directory — @p pid is named @p owner, pid 0
 * "aurora_serve", 1 "swarm coordinator", 100+e "aurora_shardd e<e>".
 */
void writeGridTrace(std::ostream &os, std::vector<Span> spans,
                    std::uint64_t trace_id, std::string name,
                    std::uint32_t pid, double dur_us,
                    std::string_view owner);

} // namespace aurora::obs

#endif // AURORA_OBS_TRACE_HH
