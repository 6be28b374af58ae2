/**
 * @file
 * Shared helpers: clocks, order statistics, and the Rep line format.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "perf.hh"
#include "util/sim_error.hh"

namespace aurora::perf
{

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    return cpus;
}

unsigned
onlineCpus()
{
    const auto n = static_cast<unsigned>(allowedCpus().size());
    return n > 0 ? n : std::max(1u, std::thread::hardware_concurrency());
}

void
pinToCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (::sched_setaffinity(0, sizeof(set), &set) != 0)
        util::raiseError(util::SimErrorCode::Internal,
                         "cannot pin the repetition to CPU ", cpu);
}

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::pair<double, double>
quartiles(std::vector<double> v)
{
    // statistics.quantiles(v, n=4) with its default 'exclusive'
    // method, so spreads read the same as the acceptance check's.
    if (v.size() < 2) {
        const double x = v.empty() ? 0.0 : v[0];
        return {x, x};
    }
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    const auto cut = [&](long i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        return (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
    };
    return {cut(1), cut(3)};
}

std::string
repToJson(const Rep &rep)
{
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    w.beginObject();
    w.key("ok").value(rep.ok);
    w.key("error").value(rep.error);
    w.key("num").beginObject();
    for (const auto &[k, v] : rep.num)
        w.key(k).value(v);
    w.endObject();
    w.key("list").beginObject();
    for (const auto &[k, v] : rep.list) {
        w.key(k).beginArray();
        for (const double x : v)
            w.value(x);
        w.endArray();
    }
    w.endObject();
    w.key("text").beginObject();
    for (const auto &[k, v] : rep.text)
        w.key(k).value(v);
    w.endObject();
    w.endObject();
    return os.str();
}

Rep
repFromJson(std::string_view line)
{
    Rep rep;
    std::string error;
    const auto doc = telemetry::parseJson(line, &error);
    if (!doc || !doc->isObject()) {
        rep.error = "unreadable repetition output: " + error;
        return rep;
    }
    const telemetry::JsonValue *ok = doc->find("ok");
    rep.ok = ok != nullptr && ok->boolean;
    rep.error = stringAt(*doc, "error");
    if (const auto *num = doc->find("num"))
        for (const auto &[k, v] : num->object)
            rep.num[k] = v.number;
    if (const auto *list = doc->find("list"))
        for (const auto &[k, v] : list->object)
            for (const telemetry::JsonValue &x : v.array)
                rep.list[k].push_back(x.number);
    if (const auto *text = doc->find("text"))
        for (const auto &[k, v] : text->object)
            rep.text[k] = v.string;
    return rep;
}

telemetry::JsonValue
loadJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::raiseError(util::SimErrorCode::BadConfig, "cannot read '",
                         path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto doc = telemetry::parseJson(text.str(), &error);
    if (!doc)
        util::raiseError(util::SimErrorCode::BadConfig, "'", path,
                         "' is not valid JSON: ", error);
    return std::move(*doc);
}

double
numberAt(const telemetry::JsonValue &v, std::string_view key)
{
    const telemetry::JsonValue *m = v.find(key);
    return m != nullptr && m->isNumber() ? m->number : 0.0;
}

std::string
stringAt(const telemetry::JsonValue &v, std::string_view key)
{
    const telemetry::JsonValue *m = v.find(key);
    return m != nullptr && m->isString() ? m->string : std::string();
}

} // namespace aurora::perf
