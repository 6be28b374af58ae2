#include "trace.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

#include "obs/flight.hh"
#include "obs/ids.hh"
#include "telemetry/json.hh"
#include "telemetry/trace_event.hh"
#include "util/sim_error.hh"

namespace aurora::obs
{

std::uint32_t
SpanLog::trackId()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return tracks_
        .try_emplace(std::this_thread::get_id(),
                     static_cast<std::uint32_t>(tracks_.size()))
        .first->second;
}

Span
SpanLog::contextSpan(std::uint64_t job, std::string name,
                     double start_us, double end_us)
{
    Span span;
    span.trace_id = context_.trace_id;
    span.name = std::move(name);
    span.pid = context_.pid;
    span.tid = trackId();
    span.ts_us = start_us;
    span.dur_us = end_us - start_us;
    span.has_job = true;
    span.job = job;
    return span;
}

void
SpanLog::addAttempt(std::uint64_t job, std::uint32_t attempt,
                    std::string name, double start_us, double end_us,
                    std::string error)
{
    Span span = contextSpan(job, std::move(name), start_us, end_us);
    span.span_id = attemptSpanId(context_.trace_id, job, attempt,
                                 context_.epoch);
    span.parent_id = context_.parent_id != 0
                         ? context_.parent_id
                         : jobSpanId(context_.trace_id, job);
    span.cat = "attempt";
    span.instant = attempt == 0;
    span.attempt = attempt;
    span.error = std::move(error);
    add(std::move(span));
}

void
SpanLog::addJob(std::uint64_t job, std::string name, double start_us,
                double end_us)
{
    if (context_.parent_id != 0)
        return;
    Span span = contextSpan(job, std::move(name), start_us, end_us);
    span.span_id = jobSpanId(context_.trace_id, job);
    span.parent_id = rootSpanId(context_.trace_id);
    span.cat = "job";
    add(std::move(span));
}

void
SpanLog::add(Span span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
SpanLog::addAll(const std::vector<Span> &spans)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::size_t
SpanLog::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::string
spanJsonLine(const Span &span)
{
    std::ostringstream os;
    os << "{\"schema\": \"aurora.spans.v1\""
       << ", \"trace\": \"" << hexId(span.trace_id) << '"'
       << ", \"span\": \"" << hexId(span.span_id) << '"'
       << ", \"parent\": \"" << hexId(span.parent_id) << '"'
       << ", \"name\": \"" << telemetry::jsonEscape(span.name) << '"'
       << ", \"cat\": \"" << telemetry::jsonEscape(span.cat) << '"'
       << ", \"pid\": " << span.pid << ", \"tid\": " << span.tid
       << ", \"ts_us\": " << telemetry::jsonNumber(span.ts_us)
       << ", \"dur_us\": " << telemetry::jsonNumber(span.dur_us);
    if (span.instant)
        os << ", \"instant\": true";
    if (span.has_job)
        os << ", \"job\": " << span.job;
    if (span.attempt != 0)
        os << ", \"attempt\": " << span.attempt;
    if (!span.error.empty())
        os << ", \"error\": \"" << telemetry::jsonEscape(span.error)
           << '"';
    os << '}';
    return os.str();
}

SpanFileWriter::SpanFileWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        util::raiseError(util::SimErrorCode::BadTrace,
                         "cannot open span file '", path,
                         "': ", std::strerror(errno));
}

SpanFileWriter::~SpanFileWriter()
{
    if (file_)
        std::fclose(file_);
}

void
SpanFileWriter::append(const Span &span)
{
    const std::string line = spanJsonLine(span);
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
}

namespace
{

std::uint64_t
hexField(const telemetry::JsonValue &obj, const char *key)
{
    const telemetry::JsonValue *v = obj.find(key);
    if (!v || !v->isString())
        return 0;
    return std::strtoull(v->string.c_str(), nullptr, 16);
}

double
numField(const telemetry::JsonValue &obj, const char *key)
{
    const telemetry::JsonValue *v = obj.find(key);
    return v && v->isNumber() ? v->number : 0.0;
}

std::string
strField(const telemetry::JsonValue &obj, const char *key)
{
    const telemetry::JsonValue *v = obj.find(key);
    return v && v->isString() ? v->string : std::string();
}

/** Parse one NDJSON line to a Span; nullopt (with @p error set) on
 *  malformed JSON or a wrong schema tag. */
std::optional<Span>
parseSpanLine(std::string_view line, std::string *error)
{
    const std::optional<telemetry::JsonValue> doc =
        telemetry::parseJson(line, error);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject()) {
        if (error)
            *error = "span line is not a JSON object";
        return std::nullopt;
    }
    const telemetry::JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString() ||
        schema->string != "aurora.spans.v1") {
        if (error)
            *error = "missing or unknown span schema tag";
        return std::nullopt;
    }
    Span span;
    span.trace_id = hexField(*doc, "trace");
    span.span_id = hexField(*doc, "span");
    span.parent_id = hexField(*doc, "parent");
    span.name = strField(*doc, "name");
    span.cat = strField(*doc, "cat");
    span.pid = static_cast<std::uint32_t>(numField(*doc, "pid"));
    span.tid = static_cast<std::uint32_t>(numField(*doc, "tid"));
    span.ts_us = numField(*doc, "ts_us");
    span.dur_us = numField(*doc, "dur_us");
    const telemetry::JsonValue *instant = doc->find("instant");
    span.instant = instant && instant->kind ==
                                  telemetry::JsonValue::Kind::Bool &&
                   instant->boolean;
    if (const telemetry::JsonValue *job = doc->find("job");
        job && job->isNumber()) {
        span.has_job = true;
        span.job = static_cast<std::uint64_t>(job->number);
    }
    span.attempt = static_cast<std::uint32_t>(numField(*doc, "attempt"));
    span.error = strField(*doc, "error");
    return span;
}

} // namespace

LoadedSpans
loadSpanFile(const std::string &path)
{
    LoadedSpans loaded;
    loaded.dropped_tail = readNdjsonFile(
        path, "span", [&](std::string_view line, std::string &error) {
            std::optional<Span> span = parseSpanLine(line, &error);
            if (span)
                loaded.spans.push_back(std::move(*span));
            return span.has_value();
        });
    return loaded;
}

void
writeChromeTrace(std::ostream &os, const std::vector<Span> &spans,
                 const std::vector<ProcessName> &processes)
{
    std::vector<Span> sorted = spans;
    // Trace viewers (and aurora_obs_check) require each (pid, tid)
    // track's events in non-decreasing ts order; span id breaks the
    // remaining ties deterministically.
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Span &a, const Span &b) {
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         if (a.ts_us != b.ts_us)
                             return a.ts_us < b.ts_us;
                         return a.span_id < b.span_id;
                     });

    telemetry::TraceEventLog log;
    for (const ProcessName &proc : processes)
        log.nameProcess(proc.pid, proc.name);
    for (const Span &span : sorted) {
        std::vector<telemetry::TraceArg> args;
        args.push_back(telemetry::traceArg(
            "trace_id", std::string_view(hexId(span.trace_id))));
        args.push_back(telemetry::traceArg(
            "span_id", std::string_view(hexId(span.span_id))));
        args.push_back(telemetry::traceArg(
            "parent_id", std::string_view(hexId(span.parent_id))));
        if (span.has_job)
            args.push_back(telemetry::traceArg("job", span.job));
        if (span.attempt != 0)
            args.push_back(telemetry::traceArg(
                "attempt", static_cast<std::uint64_t>(span.attempt)));
        if (!span.error.empty())
            args.push_back(telemetry::traceArg(
                "error", std::string_view(span.error)));
        if (span.instant)
            log.instant(span.name, span.cat, span.pid, span.tid,
                        span.ts_us, std::move(args));
        else
            log.complete(span.name, span.cat, span.pid, span.tid,
                         span.ts_us, span.dur_us, std::move(args));
    }
    log.write(os);
}

void
writeGridTrace(std::ostream &os, std::vector<Span> spans,
               std::uint64_t trace_id, std::string name,
               std::uint32_t pid, double dur_us, std::string_view owner)
{
    Span root;
    root.trace_id = trace_id;
    root.span_id = rootSpanId(trace_id);
    root.name = std::move(name);
    root.cat = "grid";
    root.pid = pid;
    root.dur_us = dur_us;
    spans.push_back(std::move(root));

    std::set<std::uint32_t> pids;
    for (const Span &span : spans)
        pids.insert(span.pid);
    std::vector<ProcessName> processes;
    for (const std::uint32_t p : pids) {
        if (p == pid)
            processes.push_back({p, std::string(owner)});
        else if (p == 0)
            processes.push_back({p, "aurora_serve"});
        else if (p == 1)
            processes.push_back({p, "swarm coordinator"});
        else
            processes.push_back(
                {p, "aurora_shardd e" + std::to_string(p - 100)});
    }
    writeChromeTrace(os, spans, processes);
}

} // namespace aurora::obs
