#include "metrics.hh"

#include <sstream>

#include "telemetry/json.hh"
#include "telemetry/registry.hh"
#include "util/stats.hh"

namespace aurora::obs
{

std::string
prometheusName(std::string_view name)
{
    std::string out = "aurora_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

namespace
{

/** Render a double the Prometheus way: integers without a point. */
std::string
promValue(double value)
{
    if (value == static_cast<double>(static_cast<long long>(value)))
        return std::to_string(static_cast<long long>(value));
    return telemetry::jsonNumber(value);
}

/** Prometheus label values escape backslash, quote, and newline. */
std::string
promLabelEscape(std::string_view text)
{
    std::string out;
    for (char c : text) {
        if (c == '\\' || c == '"')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

std::string
renderPrometheus(const telemetry::Registry &registry)
{
    std::ostringstream os;
    for (const auto &entry : registry.counters()) {
        const std::string name = prometheusName(entry.name);
        os << "# HELP " << name << ' ' << entry.description << '\n';
        os << "# TYPE " << name << " counter\n";
        os << name << ' ' << entry.counter.value() << '\n';
    }
    for (const auto &entry : registry.histograms()) {
        const std::string name = prometheusName(entry.name);
        const Histogram &h = entry.histogram;
        os << "# HELP " << name << ' ' << entry.description << '\n';
        os << "# TYPE " << name << " summary\n";
        os << name << "{quantile=\"0.5\"} " << h.percentile(0.5)
           << '\n';
        os << name << "{quantile=\"0.9\"} " << h.percentile(0.9)
           << '\n';
        os << name << "{quantile=\"0.99\"} " << h.percentile(0.99)
           << '\n';
        os << name << "_sum " << h.sum() << '\n';
        os << name << "_count " << h.count() << '\n';
    }
    for (const auto &entry : registry.gauges()) {
        const std::string name = prometheusName(entry.name);
        os << "# HELP " << name << ' ' << entry.description << '\n';
        os << "# TYPE " << name << " gauge\n";
        for (const telemetry::Gauge::Sample &v : entry.gauge.samples()) {
            os << name;
            if (!entry.label_key.empty())
                os << '{' << entry.label_key << "=\""
                   << promLabelEscape(v.label) << "\"}";
            os << ' ' << promValue(v.value) << '\n';
        }
    }
    return os.str();
}

std::string
renderMetricsJson(const telemetry::Registry &registry)
{
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("aurora.metrics.v1");
    w.key("counters").beginArray();
    for (const auto &entry : registry.counters()) {
        w.beginObject();
        w.key("name").value(entry.name);
        w.key("value").value(
            static_cast<std::uint64_t>(entry.counter.value()));
        w.endObject();
    }
    w.endArray();
    w.key("histograms").beginArray();
    for (const auto &entry : registry.histograms()) {
        const Histogram &h = entry.histogram;
        w.beginObject();
        w.key("name").value(entry.name);
        w.key("count").value(static_cast<std::uint64_t>(h.count()));
        w.key("sum").value(h.sum());
        w.key("mean").value(h.mean());
        w.key("p50").value(h.percentile(0.5));
        w.key("p95").value(h.percentile(0.95));
        w.key("p99").value(h.percentile(0.99));
        w.key("max").value(h.maxSample());
        w.endObject();
    }
    w.endArray();
    w.key("gauges").beginArray();
    for (const auto &entry : registry.gauges())
        for (const telemetry::Gauge::Sample &v : entry.gauge.samples()) {
            w.beginObject();
            w.key("name").value(entry.name);
            if (!entry.label_key.empty()) {
                w.key(entry.label_key).value(v.label);
            }
            w.key("value").value(v.value);
            w.endObject();
        }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

} // namespace aurora::obs
