/**
 * @file
 * Chrome trace-event (chrome://tracing / Perfetto) export.
 *
 * TraceEventLog collects events in the Trace Event Format's JSON
 * array form — complete spans ('X'), instants ('i'), counter series
 * ('C') and metadata ('M') — and writes a {"traceEvents": [...]}
 * document that loads directly in ui.perfetto.dev or
 * chrome://tracing. Timestamps are microseconds; the simulator maps
 * one cycle to one microsecond, and causal span traces
 * (obs::writeChromeTrace) map one wall-clock millisecond to a
 * thousand.
 *
 * TraceEventObserver is the per-cycle zoom level: attached to a
 * Processor (aurora_sim --trace-events out.json) it renders issue
 * slots, stalls, load spans, cache/MSHR/FP-queue activity and
 * occupancy counter tracks, bounded by a cycle cap exactly like
 * --pipeline-trace. Pure observer: it never perturbs results.
 */

#ifndef AURORA_TELEMETRY_TRACE_EVENT_HH
#define AURORA_TELEMETRY_TRACE_EVENT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline_trace.hh"
#include "util/types.hh"

namespace aurora::telemetry
{

/** One pre-rendered event argument (value is a JSON scalar). */
struct TraceArg
{
    std::string key;
    std::string json;
};

/** Build a string argument. */
TraceArg traceArg(std::string_view key, std::string_view value);
/** Build a numeric argument. */
TraceArg traceArg(std::string_view key, double value);
/** Build a numeric argument. */
TraceArg traceArg(std::string_view key, std::uint64_t value);

/** One trace event (see the Trace Event Format description). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char ph = 'X';
    double ts = 0.0;  ///< microseconds
    double dur = 0.0; ///< microseconds ('X' events only)
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::vector<TraceArg> args;
};

/** Ordered collection of trace events with a JSON writer. */
class TraceEventLog
{
  public:
    void add(TraceEvent event) { events_.push_back(std::move(event)); }

    /** Append a complete span ('X'). */
    void complete(std::string_view name, std::string_view cat,
                  std::uint32_t pid, std::uint32_t tid, double ts,
                  double dur, std::vector<TraceArg> args = {});

    /** Append a thread-scoped instant ('i'). */
    void instant(std::string_view name, std::string_view cat,
                 std::uint32_t pid, std::uint32_t tid, double ts,
                 std::vector<TraceArg> args = {});

    /** Append one sample of the counter track @p name ('C'). */
    void counter(std::string_view name, std::uint32_t pid,
                 std::uint32_t tid, double ts,
                 std::vector<TraceArg> series);

    /** Name process @p pid (metadata event). */
    void nameProcess(std::uint32_t pid, std::string_view name);
    /** Name thread @p tid of process @p pid (metadata event). */
    void nameThread(std::uint32_t pid, std::uint32_t tid,
                    std::string_view name);

    std::size_t size() const { return events_.size(); }
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Write the {"traceEvents": [...]} document. */
    void write(std::ostream &os) const;

  private:
    std::vector<TraceEvent> events_;
};

/**
 * Per-cycle pipeline exporter. Lane layout (thread tracks):
 * issue/stall spans on tid 0, retire instants on tid 1, memory
 * activity (loads, caches, MSHRs) on tid 2, FPU queues on tid 3,
 * occupancy counter tracks alongside. Emission stops after
 * @p max_cycles; the simulation (and its statistics) continue.
 */
class TraceEventObserver : public core::PipelineObserver
{
  public:
    TraceEventObserver(TraceEventLog &log, Cycle max_cycles,
                       std::uint32_t pid = 0);

    void onIssue(Cycle now, const trace::Inst &inst,
                 unsigned slot) override;
    void onStall(Cycle now, core::StallCause cause) override;
    void onRetire(Cycle now, unsigned count) override;
    void onCacheAccess(Cycle now, core::CacheUnit unit, unsigned hits,
                       unsigned misses) override;
    void onLoadIssue(Cycle now, Cycle latency, bool miss) override;
    void onMshr(Cycle now, unsigned allocated, unsigned released,
                unsigned in_use) override;
    void onFpQueue(Cycle now, core::FpQueueKind queue,
                   unsigned enqueued, unsigned dequeued,
                   unsigned depth) override;
    void onDrainStart(Cycle now) override;
    void onDrainEnd(Cycle now, unsigned mshr_releases) override;
    void onCycleEnd(Cycle now, const core::OccupancySample &occ) override;

  private:
    bool active(Cycle now) const { return now < maxCycles_; }

    TraceEventLog &log_;
    Cycle maxCycles_;
    std::uint32_t pid_;
};

} // namespace aurora::telemetry

#endif // AURORA_TELEMETRY_TRACE_EVENT_HH
