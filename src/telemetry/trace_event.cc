#include "trace_event.hh"

#include <ostream>
#include <utility>

#include "json.hh"
#include "trace/op_class.hh"

namespace aurora::telemetry
{

namespace
{

/** Lane (thread track) ids for the per-cycle pipeline exporter. */
constexpr std::uint32_t LANE_ISSUE = 0;
constexpr std::uint32_t LANE_RETIRE = 1;
constexpr std::uint32_t LANE_MEMORY = 2;
constexpr std::uint32_t LANE_FPU = 3;

} // namespace

TraceArg
traceArg(std::string_view key, std::string_view value)
{
    std::string quoted = "\"";
    quoted += jsonEscape(value);
    quoted += '"';
    return {std::string(key), std::move(quoted)};
}

TraceArg
traceArg(std::string_view key, double value)
{
    return {std::string(key), jsonNumber(value)};
}

TraceArg
traceArg(std::string_view key, std::uint64_t value)
{
    return {std::string(key), std::to_string(value)};
}

void
TraceEventLog::complete(std::string_view name, std::string_view cat,
                        std::uint32_t pid, std::uint32_t tid, double ts,
                        double dur, std::vector<TraceArg> args)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'X';
    e.ts = ts;
    e.dur = dur;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    add(std::move(e));
}

void
TraceEventLog::instant(std::string_view name, std::string_view cat,
                       std::uint32_t pid, std::uint32_t tid, double ts,
                       std::vector<TraceArg> args)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'i';
    e.ts = ts;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    add(std::move(e));
}

void
TraceEventLog::counter(std::string_view name, std::uint32_t pid,
                       std::uint32_t tid, double ts,
                       std::vector<TraceArg> series)
{
    TraceEvent e;
    e.name = name;
    e.cat = "counter";
    e.ph = 'C';
    e.ts = ts;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(series);
    add(std::move(e));
}

void
TraceEventLog::nameProcess(std::uint32_t pid, std::string_view name)
{
    TraceEvent e;
    e.name = "process_name";
    e.ph = 'M';
    e.pid = pid;
    e.args.push_back(traceArg("name", name));
    add(std::move(e));
}

void
TraceEventLog::nameThread(std::uint32_t pid, std::uint32_t tid,
                          std::string_view name)
{
    TraceEvent e;
    e.name = "thread_name";
    e.ph = 'M';
    e.pid = pid;
    e.tid = tid;
    e.args.push_back(traceArg("name", name));
    add(std::move(e));
}

void
TraceEventLog::write(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (const TraceEvent &e : events_) {
        w.beginObject();
        w.key("name").value(e.name);
        if (!e.cat.empty())
            w.key("cat").value(e.cat);
        w.key("ph").value(std::string_view(&e.ph, 1));
        w.key("ts").value(e.ts);
        if (e.ph == 'X')
            w.key("dur").value(e.dur);
        w.key("pid").value(std::uint64_t{e.pid});
        w.key("tid").value(std::uint64_t{e.tid});
        if (e.ph == 'i')
            w.key("s").value("t");
        if (!e.args.empty()) {
            w.key("args").beginObject();
            for (const TraceArg &a : e.args)
                w.key(a.key).raw(a.json);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

TraceEventObserver::TraceEventObserver(TraceEventLog &log,
                                       Cycle max_cycles,
                                       std::uint32_t pid)
    : log_(log), maxCycles_(max_cycles), pid_(pid)
{
    log_.nameProcess(pid_, "aurora_sim pipeline");
    log_.nameThread(pid_, LANE_ISSUE, "issue");
    log_.nameThread(pid_, LANE_RETIRE, "retire");
    log_.nameThread(pid_, LANE_MEMORY, "memory");
    log_.nameThread(pid_, LANE_FPU, "fpu");
}

void
TraceEventObserver::onIssue(Cycle now, const trace::Inst &inst,
                            unsigned slot)
{
    if (!active(now))
        return;
    log_.complete(trace::opClassName(inst.op), "issue", pid_,
                  LANE_ISSUE, static_cast<double>(now), 1.0,
                  {traceArg("pc", std::uint64_t{inst.pc}),
                   traceArg("slot", std::uint64_t{slot})});
}

void
TraceEventObserver::onStall(Cycle now, core::StallCause cause)
{
    if (!active(now))
        return;
    log_.complete(core::stallCauseName(cause), "stall", pid_,
                  LANE_ISSUE, static_cast<double>(now), 1.0);
}

void
TraceEventObserver::onRetire(Cycle now, unsigned count)
{
    if (!active(now))
        return;
    log_.complete("retire", "retire", pid_, LANE_RETIRE,
                  static_cast<double>(now), 1.0,
                  {traceArg("count", std::uint64_t{count})});
}

void
TraceEventObserver::onCacheAccess(Cycle now, core::CacheUnit unit,
                                  unsigned hits, unsigned misses)
{
    if (!active(now))
        return;
    log_.instant(core::cacheUnitName(unit), "cache", pid_, LANE_MEMORY,
                 static_cast<double>(now),
                 {traceArg("hits", std::uint64_t{hits}),
                  traceArg("misses", std::uint64_t{misses})});
}

void
TraceEventObserver::onLoadIssue(Cycle now, Cycle latency, bool miss)
{
    if (!active(now))
        return;
    log_.complete(miss ? "load miss" : "load hit", "mem", pid_,
                  LANE_MEMORY, static_cast<double>(now),
                  static_cast<double>(latency),
                  {traceArg("latency", std::uint64_t{latency})});
}

void
TraceEventObserver::onMshr(Cycle now, unsigned allocated,
                           unsigned released, unsigned in_use)
{
    if (!active(now))
        return;
    log_.instant("mshr", "mem", pid_, LANE_MEMORY,
                 static_cast<double>(now),
                 {traceArg("allocated", std::uint64_t{allocated}),
                  traceArg("released", std::uint64_t{released}),
                  traceArg("in_use", std::uint64_t{in_use})});
}

void
TraceEventObserver::onFpQueue(Cycle now, core::FpQueueKind queue,
                              unsigned enqueued, unsigned dequeued,
                              unsigned depth)
{
    if (!active(now))
        return;
    log_.instant(core::fpQueueName(queue), "fpu", pid_, LANE_FPU,
                 static_cast<double>(now),
                 {traceArg("enqueued", std::uint64_t{enqueued}),
                  traceArg("dequeued", std::uint64_t{dequeued}),
                  traceArg("depth", std::uint64_t{depth})});
}

void
TraceEventObserver::onDrainStart(Cycle now)
{
    if (!active(now))
        return;
    log_.instant("drain begin", "drain", pid_, LANE_ISSUE,
                 static_cast<double>(now));
}

void
TraceEventObserver::onDrainEnd(Cycle now, unsigned mshr_releases)
{
    if (!active(now))
        return;
    log_.instant("drain end", "drain", pid_, LANE_ISSUE,
                 static_cast<double>(now),
                 {traceArg("mshr_releases",
                           std::uint64_t{mshr_releases})});
}

void
TraceEventObserver::onCycleEnd(Cycle now,
                               const core::OccupancySample &occ)
{
    if (!active(now))
        return;
    log_.counter("occupancy", pid_, LANE_ISSUE,
                 static_cast<double>(now),
                 {traceArg("rob", std::uint64_t{occ.rob}),
                  traceArg("mshr", std::uint64_t{occ.mshr}),
                  traceArg("write_cache", std::uint64_t{occ.write_cache}),
                  traceArg("prefetch", std::uint64_t{occ.prefetch})});
    log_.counter("fp queues", pid_, LANE_FPU,
                 static_cast<double>(now),
                 {traceArg("instq", std::uint64_t{occ.fp_instq}),
                  traceArg("loadq", std::uint64_t{occ.fp_loadq}),
                  traceArg("storeq", std::uint64_t{occ.fp_storeq}),
                  traceArg("fp_rob", std::uint64_t{occ.fp_rob})});
}

} // namespace aurora::telemetry
