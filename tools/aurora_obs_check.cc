/**
 * @file
 * aurora_obs_check — validator for the telemetry exporters' output.
 *
 * Usage:
 *   aurora_obs_check trace FILE        validate a Chrome trace file
 *   aurora_obs_check stats FILE        validate a --stats-json doc
 *   aurora_obs_check csv FILE          validate a --stats-csv table
 *   aurora_obs_check spans FILE        validate aurora.spans.v1 NDJSON
 *   aurora_obs_check flight FILE       validate aurora.flight.v1 NDJSON
 *   aurora_obs_check postmortem DIR [N]  reconstruct dead shards'
 *                                      last N events next to the
 *                                      coordinator's fence records
 *
 * `trace` checks what Perfetto/chrome://tracing require to load a
 * file: valid JSON, a traceEvents array, name/ph/ts on every event,
 * non-negative durations on complete spans, and non-decreasing
 * timestamps per (pid, tid) track — plus, for causal traces, that
 * every event carrying span args has one uniform trace id and that
 * every non-root parent id names a span present in the file. `stats`
 * checks the schema tag and the internal consistency of every
 * exported histogram (bucket sum + overflow == count, p50 <= p95 <=
 * max). `csv` checks rectangular shape. `spans`/`flight` run the
 * tolerant NDJSON readers (torn tail dropped, mid-file corruption
 * reported with its byte offset) plus per-format invariants
 * (strictly increasing flight seq, nonzero span ids). Exit 0 =
 * valid; exit 1 prints the first violation. The obs stage of
 * scripts/check.sh runs these against fresh exports.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.hh"
#include "obs/trace.hh"
#include "telemetry/export.hh"
#include "telemetry/json.hh"
#include "util/env.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;

[[noreturn]] void
usage()
{
    std::cerr << "usage: aurora_obs_check "
                 "trace|stats|csv|spans|flight FILE\n"
                 "       aurora_obs_check postmortem DIR [N]\n";
    std::exit(2);
}

[[noreturn]] void
fail(const std::string &what)
{
    std::cerr << "aurora_obs_check: " << what << "\n";
    std::exit(1);
}

std::string
slurp(const std::string &path)
{
    if (path == "-") {
        std::ostringstream os;
        os << std::cin.rdbuf();
        return os.str();
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fail("cannot open '" + path + "'");
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

const telemetry::JsonValue &
member(const telemetry::JsonValue &object, const std::string &key,
       const std::string &where)
{
    const telemetry::JsonValue *value = object.find(key);
    if (!value)
        fail(where + ": missing member '" + key + "'");
    return *value;
}

double
number(const telemetry::JsonValue &object, const std::string &key,
       const std::string &where)
{
    const telemetry::JsonValue &value = member(object, key, where);
    if (!value.isNumber())
        fail(where + ": member '" + key + "' is not a number");
    return value.number;
}

telemetry::JsonValue
parse(const std::string &path)
{
    std::string error;
    const auto doc = telemetry::parseJson(slurp(path), &error);
    if (!doc)
        fail("'" + path + "' is not valid JSON: " + error);
    return *doc;
}

int
checkTrace(const std::string &path)
{
    const telemetry::JsonValue doc = parse(path);
    if (!doc.isObject())
        fail("trace document is not a JSON object");
    const telemetry::JsonValue &events =
        member(doc, "traceEvents", "trace document");
    if (!events.isArray())
        fail("'traceEvents' is not an array");

    // Trace viewers sort tracks by (pid, tid); within one track the
    // exporters must emit time-ordered events.
    std::map<std::pair<double, double>, double> last_ts;
    std::size_t spans = 0;
    // Causal parentage: every span id seen, every non-root parent
    // claimed, and the (single) trace id they must all share.
    const std::string ROOT_PARENT = "0x0000000000000000";
    std::set<std::string> span_ids;
    std::vector<std::pair<std::string, std::size_t>> parent_refs;
    std::string trace_id;
    std::size_t causal = 0;
    for (std::size_t i = 0; i < events.array.size(); ++i) {
        const std::string where = "event " + std::to_string(i);
        const telemetry::JsonValue &e = events.array[i];
        if (!e.isObject())
            fail(where + " is not an object");
        if (!member(e, "name", where).isString())
            fail(where + ": 'name' is not a string");
        const telemetry::JsonValue &ph = member(e, "ph", where);
        if (!ph.isString() || ph.string.size() != 1)
            fail(where + ": 'ph' is not a one-character string");
        const double ts = number(e, "ts", where);
        if (ph.string == "M")
            continue; // metadata events are timeless
        const double pid = number(e, "pid", where);
        const double tid = number(e, "tid", where);
        const auto track = std::make_pair(pid, tid);
        const auto it = last_ts.find(track);
        if (it != last_ts.end() && ts < it->second)
            fail(where + ": ts " + std::to_string(ts) +
                 " decreases on track (pid " + std::to_string(pid) +
                 ", tid " + std::to_string(tid) + ") after " +
                 std::to_string(it->second));
        last_ts[track] = ts;
        if (ph.string == "X") {
            ++spans;
            if (number(e, "dur", where) < 0.0)
                fail(where + ": complete span has negative dur");
        }
        const telemetry::JsonValue *args = e.find("args");
        if (!args || !args->isObject())
            continue;
        const telemetry::JsonValue *sid = args->find("span_id");
        if (!sid)
            continue; // a plain (non-causal) exporter event
        if (!sid->isString())
            fail(where + ": 'span_id' is not a string");
        if (sid->string == ROOT_PARENT)
            fail(where + ": span id is zero");
        ++causal;
        span_ids.insert(sid->string);
        const telemetry::JsonValue *tr = args->find("trace_id");
        if (!tr || !tr->isString())
            fail(where + ": span carries span_id but no trace_id");
        if (trace_id.empty())
            trace_id = tr->string;
        else if (tr->string != trace_id)
            fail(where + ": trace id " + tr->string +
                 " differs from the grid's " + trace_id);
        const telemetry::JsonValue *par = args->find("parent_id");
        if (!par || !par->isString())
            fail(where + ": span carries span_id but no parent_id");
        if (par->string != ROOT_PARENT)
            parent_refs.emplace_back(par->string, i);
    }
    for (const auto &[parent, index] : parent_refs)
        if (span_ids.count(parent) == 0)
            fail("event " + std::to_string(index) + ": parent span " +
                 parent + " does not exist in this trace");
    std::cout << "trace ok: " << events.array.size() << " events ("
              << spans << " spans) on " << last_ts.size()
              << " track(s)";
    if (causal != 0)
        std::cout << "; " << causal << " causal span(s) of trace "
                  << trace_id << ", parentage closed";
    std::cout << "\n";
    return 0;
}

int
checkSpans(const std::string &path)
{
    obs::LoadedSpans loaded;
    try {
        loaded = obs::loadSpanFile(path);
    } catch (const util::SimError &e) {
        fail(e.what());
    }
    std::set<std::uint64_t> traces;
    for (std::size_t i = 0; i < loaded.spans.size(); ++i) {
        const obs::Span &s = loaded.spans[i];
        if (s.span_id == 0)
            fail("span " + std::to_string(i) + ": zero span id");
        if (s.trace_id == 0)
            fail("span " + std::to_string(i) + ": zero trace id");
        if (s.name.empty())
            fail("span " + std::to_string(i) + ": empty name");
        traces.insert(s.trace_id);
    }
    std::cout << "spans ok: " << loaded.spans.size() << " span(s), "
              << traces.size() << " trace(s)"
              << (loaded.dropped_tail ? ", torn tail dropped" : "")
              << "\n";
    return 0;
}

int
checkFlight(const std::string &path)
{
    obs::LoadedFlight loaded;
    try {
        loaded = obs::loadFlightFile(path);
    } catch (const util::SimError &e) {
        fail(e.what());
    }
    if (loaded.events.empty())
        fail("'" + path + "' holds no flight events");
    std::uint64_t last_seq = 0;
    for (std::size_t i = 0; i < loaded.events.size(); ++i) {
        const obs::FlightEvent &e = loaded.events[i];
        if (e.event.empty())
            fail("flight event " + std::to_string(i) +
                 ": empty event name");
        // Monotone, not strictly increasing: a signal-path
        // flight.dump marker cannot claim a sequence number (no
        // atomics-with-ring update from a handler), so it shares the
        // seq of the next recorded event.
        if (i != 0 && e.seq < last_seq)
            fail("flight event " + std::to_string(i) + ": seq " +
                 std::to_string(e.seq) + " goes backwards after " +
                 std::to_string(last_seq));
        last_seq = e.seq;
    }
    std::cout << "flight ok: " << loaded.events.size()
              << " event(s), last seq " << last_seq
              << (loaded.dropped_tail ? ", torn tail dropped" : "")
              << "\n";
    return 0;
}

/** "epoch=42 pid=..." → 42; 0 when the key is absent. */
std::uint64_t
detailEpoch(const std::string &detail)
{
    const std::size_t at = detail.find("epoch=");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(detail.c_str() + at + 6, nullptr, 10);
}

/**
 * Post-mortem reader: for every fence the coordinator recorded, show
 * the fenced incarnation's last N flight events next to the fence
 * decision — the "what was the shard doing when the coordinator gave
 * up on it" view. DIR is a swarm flight directory (swarm.flight +
 * shard-e<epoch>.flight files).
 */
int
postmortem(const std::string &dir, std::size_t last_n)
{
    obs::LoadedFlight coord;
    try {
        coord = obs::loadFlightFile(dir + "/swarm.flight");
    } catch (const util::SimError &e) {
        fail(e.what());
    }
    std::size_t fences = 0;
    for (const obs::FlightEvent &e : coord.events) {
        if (e.event != "lease.fence")
            continue;
        ++fences;
        std::cout << "fence @" << e.ms << "ms seq " << e.seq << " ["
                  << e.code << "] " << e.detail << "\n";
        const std::uint64_t epoch = detailEpoch(e.detail);
        if (epoch == 0) {
            std::cout << "  (no epoch in the fence record)\n";
            continue;
        }
        const std::string shard_path =
            dir + "/shard-e" + std::to_string(epoch) + ".flight";
        obs::LoadedFlight shard;
        try {
            shard = obs::loadFlightFile(shard_path);
        } catch (const util::SimError &) {
            // A worker SIGKILLed before its handshake never opened a
            // flight file — the fence record is all there is.
            std::cout << "  (no flight file for epoch " << epoch
                      << ": the worker died before its handshake)\n";
            continue;
        }
        const std::size_t begin =
            shard.events.size() > last_n ? shard.events.size() - last_n
                                         : 0;
        for (std::size_t i = begin; i < shard.events.size(); ++i) {
            const obs::FlightEvent &s = shard.events[i];
            std::cout << "  shard e" << epoch << " @" << s.ms
                      << "ms seq " << s.seq << " " << s.event;
            if (!s.code.empty())
                std::cout << " [" << s.code << "]";
            if (!s.detail.empty())
                std::cout << " " << s.detail;
            std::cout << (shard.dropped_tail &&
                                  i + 1 == shard.events.size()
                              ? " (tail torn after this)"
                              : "")
                      << "\n";
        }
    }
    std::cout << "postmortem: " << fences << " fence(s) in "
              << coord.events.size() << " coordinator event(s)\n";
    return 0;
}

void
checkHistogram(const telemetry::JsonValue &h, const std::string &where)
{
    const double count = number(h, "count", where);
    const double overflow = number(h, "overflow", where);
    const telemetry::JsonValue &buckets =
        member(h, "buckets", where);
    if (!buckets.isArray())
        fail(where + ": 'buckets' is not an array");
    double in_buckets = 0.0;
    for (const telemetry::JsonValue &b : buckets.array) {
        if (!b.isNumber())
            fail(where + ": bucket is not a number");
        in_buckets += b.number;
    }
    if (in_buckets + overflow != count)
        fail(where + ": bucket sum " + std::to_string(in_buckets) +
             " + overflow " + std::to_string(overflow) +
             " != count " + std::to_string(count));
    const double p50 = number(h, "p50", where);
    const double p95 = number(h, "p95", where);
    const double max = number(h, "max", where);
    if (p50 > p95 || p95 > max)
        fail(where + ": percentile order violated (p50 " +
             std::to_string(p50) + ", p95 " + std::to_string(p95) +
             ", max " + std::to_string(max) + ")");
}

void
checkRun(const telemetry::JsonValue &run, const std::string &where)
{
    if (!run.isObject())
        fail(where + " is not an object");
    if (!member(run, "model", where).isString())
        fail(where + ": 'model' is not a string");
    number(run, "instructions", where);
    number(run, "cycles", where);
    number(run, "cpi", where);
    const telemetry::JsonValue &occ =
        member(run, "occupancy", where);
    for (const std::string res : {"rob", "mshr", "fp_instq",
                                  "fp_loadq", "fp_storeq"}) {
        const std::string owhere = where + ".occupancy." + res;
        const telemetry::JsonValue &o = member(occ, res, owhere);
        const double p50 = number(o, "p50", owhere);
        const double p95 = number(o, "p95", owhere);
        const double max = number(o, "max", owhere);
        if (p50 > p95 || p95 > max)
            fail(owhere + ": percentile order violated");
    }
    const telemetry::JsonValue *metrics = run.find("metrics");
    if (!metrics)
        return;
    const telemetry::JsonValue &counters =
        member(*metrics, "counters", where + ".metrics");
    for (const telemetry::JsonValue &c : counters.array)
        number(c, "value", where + ".metrics.counters");
    const telemetry::JsonValue &histograms =
        member(*metrics, "histograms", where + ".metrics");
    for (std::size_t i = 0; i < histograms.array.size(); ++i)
        checkHistogram(histograms.array[i],
                       where + ".metrics.histograms[" +
                           std::to_string(i) + "]");
}

int
checkStats(const std::string &path)
{
    const telemetry::JsonValue doc = parse(path);
    if (!doc.isObject())
        fail("stats document is not a JSON object");
    const telemetry::JsonValue &schema =
        member(doc, "schema", "stats document");
    if (!schema.isString())
        fail("'schema' is not a string");
    std::size_t runs = 0;
    if (schema.string == telemetry::RUN_SCHEMA) {
        checkRun(member(doc, "run", "stats document"), "run");
        runs = 1;
    } else if (schema.string == telemetry::SUITE_SCHEMA) {
        const telemetry::JsonValue &list =
            member(doc, "runs", "stats document");
        if (!list.isArray())
            fail("'runs' is not an array");
        for (std::size_t i = 0; i < list.array.size(); ++i)
            checkRun(list.array[i],
                     "runs[" + std::to_string(i) + "]");
        runs = list.array.size();
    } else {
        fail("unknown schema '" + schema.string + "'");
    }
    std::cout << "stats ok: schema " << schema.string << ", " << runs
              << " run(s)\n";
    return 0;
}

/** Split one CSV line; quoted fields may contain commas/quotes. */
std::size_t
csvFieldCount(const std::string &line, std::size_t line_no)
{
    std::size_t fields = 1;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"')
                    ++i; // escaped quote
                else
                    quoted = false;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            ++fields;
        }
    }
    if (quoted)
        fail("line " + std::to_string(line_no) +
             ": unterminated quoted field");
    return fields;
}

int
checkCsv(const std::string &path)
{
    std::istringstream in(slurp(path));
    std::string line;
    std::size_t columns = 0;
    std::size_t rows = 0;
    for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
        if (line.empty())
            continue;
        const std::size_t fields = csvFieldCount(line, line_no);
        if (line_no == 1)
            columns = fields;
        else if (fields != columns)
            fail("line " + std::to_string(line_no) + ": " +
                 std::to_string(fields) + " fields, header has " +
                 std::to_string(columns));
        ++rows;
    }
    if (rows == 0)
        fail("empty CSV document");
    std::cout << "csv ok: " << rows - 1 << " row(s) x " << columns
              << " column(s)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const std::string mode = argv[1];
    const std::string path = argv[2];
    if (mode == "postmortem") {
        std::size_t last_n = 8;
        if (argc == 4) {
            try {
                last_n = countOption<std::size_t>("postmortem N", argv[3]);
            } catch (const util::SimError &e) {
                fail(e.what());
            }
        } else if (argc != 3)
            usage();
        return postmortem(path, last_n);
    }
    if (argc != 3)
        usage();
    if (mode == "trace")
        return checkTrace(path);
    if (mode == "stats")
        return checkStats(path);
    if (mode == "csv")
        return checkCsv(path);
    if (mode == "spans")
        return checkSpans(path);
    if (mode == "flight")
        return checkFlight(path);
    usage();
}
