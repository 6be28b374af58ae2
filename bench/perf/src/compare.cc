/**
 * @file
 * Judging results files (bench/perf/README.md, "Comparing commits").
 *
 * `compare` applies the gain and regression rules to ≥ 10 alternating
 * (parent, change) pairs of results files, with each end-to-end
 * metric's direction and bound read from BENCHMARK.json.
 * `check-repeat` asserts that two sets of the same code agree within
 * those bounds and that every exact count repeats.
 */

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <set>

#include "perf.hh"
#include "util/sim_error.hh"

namespace aurora::perf
{

namespace
{

using telemetry::JsonValue;

struct Bound
{
    std::string name;
    bool higher_better = false;
    double bound = 0.0;
};

std::vector<Bound>
loadBounds(const std::string &path)
{
    const JsonValue doc = loadJsonFile(path);
    const JsonValue *list = doc.find("end_to_end");
    if (list == nullptr || !list->isArray())
        util::raiseError(util::SimErrorCode::BadConfig, "'", path,
                         "' has no end_to_end list");
    std::vector<Bound> bounds;
    for (const JsonValue &m : list->array)
        bounds.push_back({stringAt(m, "name"),
                          stringAt(m, "better") == "higher",
                          numberAt(m, "bound")});
    return bounds;
}

/** One results file, reduced to what the rules read. */
struct Results
{
    std::string path;
    std::string context;
    double started = 0;
    std::uint64_t seed = 0;
    /** workload → metric → value */
    std::map<std::string, std::map<std::string, double>> e2e;
    std::map<std::string, std::map<std::string, double>> exact;
    std::map<std::string, std::string> digest;
    std::map<std::string, bool> correct;
};

std::string
renderContext(const JsonValue &v)
{
    std::string out;
    for (const auto &[k, x] : v.object)
        out += k + "=" +
               (x.isString() ? x.string
                             : x.kind == JsonValue::Kind::Bool
                                   ? (x.boolean ? "true" : "false")
                                   : std::to_string(x.number)) +
               "; ";
    return out;
}

Results
loadResults(const std::string &path)
{
    const JsonValue doc = loadJsonFile(path);
    if (stringAt(doc, "schema") != "aurora.perf.v1")
        util::raiseError(util::SimErrorCode::BadConfig, "'", path,
                         "' is not an aurora_perf results file");
    Results r;
    r.path = path;
    if (const JsonValue *c = doc.find("context"))
        r.context = renderContext(*c);
    r.started = numberAt(doc, "started_unix");
    r.seed = static_cast<std::uint64_t>(numberAt(doc, "seed"));
    if (const JsonValue *list = doc.find("workloads"))
        for (const JsonValue &w : list->array) {
            const std::string name = stringAt(w, "name");
            if (const JsonValue *e = w.find("end_to_end"))
                for (const auto &[k, m] : e->object)
                    r.e2e[name][k] = numberAt(m, "value");
            if (const JsonValue *x = w.find("exact"))
                for (const auto &[k, v] : x->object)
                    r.exact[name][k] = v.number;
            if (const JsonValue *d = w.find("digests"))
                r.digest[name] = stringAt(*d, "stats_digest");
            const JsonValue *ok = w.find("correct");
            r.correct[name] = ok != nullptr && ok->boolean;
        }
    return r;
}

std::vector<Results>
loadAll(const std::vector<std::string> &paths)
{
    std::vector<Results> all;
    for (const std::string &p : paths)
        all.push_back(loadResults(p));
    return all;
}

/** Refuse results taken under different host/build contexts. */
bool
sameContext(const std::vector<Results> &all)
{
    for (const Results &r : all)
        if (r.context != all.front().context) {
            std::cerr << "aurora_perf: refusing to compare results from "
                         "different contexts:\n  "
                      << all.front().path << ": " << all.front().context
                      << "\n  " << r.path << ": " << r.context << "\n";
            return false;
        }
    return true;
}

double
valueOf(const Results &r, const std::string &workload,
        const std::string &metric)
{
    const auto it = r.e2e.find(workload);
    if (it == r.e2e.end())
        return NAN;
    const auto jt = it->second.find(metric);
    return jt == it->second.end() ? NAN : jt->second;
}

std::string
digestOf(const Results &r, const std::string &workload)
{
    const auto it = r.digest.find(workload);
    return it == r.digest.end() ? std::string("absent") : it->second;
}

bool
correctOf(const Results &r, const std::string &workload)
{
    const auto it = r.correct.find(workload);
    return it != r.correct.end() && it->second;
}

/** Signed relative change of @p to against @p from, worse = positive. */
double
worsening(const Bound &b, double from, double to)
{
    const double rel = from != 0 ? (to - from) / std::fabs(from) : 0.0;
    return b.higher_better ? -rel : rel;
}

} // namespace

int
compareResults(const std::string &bounds_path,
               const std::vector<std::string> &parent_paths,
               const std::vector<std::string> &change_paths)
{
    const std::vector<Bound> bounds = loadBounds(bounds_path);
    const std::vector<Results> parents = loadAll(parent_paths);
    const std::vector<Results> changes = loadAll(change_paths);
    std::vector<Results> all = parents;
    all.insert(all.end(), changes.begin(), changes.end());
    if (all.empty() || !sameContext(all))
        return 2;
    const std::size_t pairs = std::min(parents.size(), changes.size());

    // The side that ran first must alternate from pair to pair.
    bool alternating = pairs >= 2;
    for (std::size_t i = 1; i < pairs; ++i) {
        const bool prev = parents[i - 1].started <= changes[i - 1].started;
        const bool cur = parents[i].started <= changes[i].started;
        alternating = alternating && prev != cur;
    }
    std::cout << pairs << " pairs"
              << (alternating ? ", alternating" : ", NOT alternating")
              << (pairs >= 10 ? "" : " (a gain needs >= 10 pairs)")
              << "\n";

    std::set<std::string> workloads;
    for (const Results &r : parents)
        for (const auto &[name, metrics] : r.e2e)
            workloads.insert(name);

    bool any_worse = false;
    for (const std::string &name : workloads) {
        for (std::size_t i = 0; i < pairs; ++i) {
            if (parents[i].seed != changes[i].seed)
                continue;
            if (digestOf(parents[i], name) != digestOf(changes[i], name))
                std::cout << name << ": simulated results changed (pair "
                          << i << ": stats_digest "
                          << digestOf(parents[i], name) << " -> "
                          << digestOf(changes[i], name) << ")\n";
            if (!correctOf(changes[i], name))
                std::cout << name << ": change run " << changes[i].path
                          << " reported wrong outputs\n";
        }
        for (const Bound &b : bounds) {
            std::vector<double> p, c;
            std::size_t wins = 0;
            for (std::size_t i = 0; i < pairs; ++i) {
                const double pv = valueOf(parents[i], name, b.name);
                const double cv = valueOf(changes[i], name, b.name);
                if (std::isnan(pv) || std::isnan(cv))
                    continue;
                p.push_back(pv);
                c.push_back(cv);
                if (worsening(b, pv, cv) < 0)
                    ++wins;
            }
            if (p.empty())
                continue;
            const double pm = median(p), cm = median(c);
            const auto [pq1, pq3] = quartiles(p);
            const auto [cq1, cq3] = quartiles(c);
            const double spread = pm != 0 ? (pq3 - pq1) / std::fabs(pm) : 0;
            const double worse = worsening(b, pm, cm);
            const bool all_better =
                b.higher_better
                    ? *std::min_element(c.begin(), c.end()) >
                          *std::max_element(p.begin(), p.end())
                    : *std::max_element(c.begin(), c.end()) <
                          *std::min_element(p.begin(), p.end());
            std::string verdict;
            if (worse > b.bound) {
                verdict = "worse";
                any_worse = true;
            } else if (p.size() >= 10 && alternating &&
                       static_cast<double>(wins) >=
                           0.9 * static_cast<double>(p.size()) &&
                       worse < 0 && std::fabs(cm - pm) > (pq3 - pq1)) {
                verdict = "improved";
            } else if (spread > b.bound && !all_better) {
                verdict = "unresolved";
            } else {
                verdict = "unchanged";
            }
            std::cout << std::left << std::setw(12) << name << " "
                      << std::setw(16) << b.name << " " << std::setw(10)
                      << verdict << std::right << " parent "
                      << std::setprecision(5) << pm << " [" << pq1 << ", "
                      << pq3 << "]  change " << cm << " [" << cq1 << ", "
                      << cq3 << "]  wins " << wins << "/" << p.size()
                      << "  bound " << b.bound << "\n";
        }
    }
    return any_worse ? 1 : 0;
}

int
checkRepeat(const std::string &bounds_path, const std::string &first_path,
            const std::string &second_path)
{
    const std::vector<Bound> bounds = loadBounds(bounds_path);
    const std::vector<Results> both =
        loadAll({first_path, second_path});
    if (!sameContext(both))
        return 2;
    const Results &a = both[0];
    const Results &b = both[1];
    bool ok = true;
    const auto fail = [&ok](const std::string &what) {
        ok = false;
        std::cout << "MISMATCH " << what << "\n";
    };
    for (const auto &[name, metrics] : a.e2e) {
        if (!b.e2e.count(name)) {
            fail(name + ": missing from " + b.path);
            continue;
        }
        if (!correctOf(a, name) || !correctOf(b, name))
            fail(name + ": a run reported wrong outputs");
        if (digestOf(a, name) != digestOf(b, name))
            fail(name + ": stats_digest " + digestOf(a, name) + " vs " +
                 digestOf(b, name));
        for (const Bound &m : bounds) {
            const double x = valueOf(a, name, m.name);
            const double y = valueOf(b, name, m.name);
            if (std::isnan(x) || std::isnan(y))
                continue;
            const double rel = x != 0 ? std::fabs(y - x) / std::fabs(x) : 0;
            std::cout << std::left << std::setw(12) << name << " "
                      << std::setw(16) << m.name << std::right
                      << std::setprecision(5) << std::setw(12) << x
                      << std::setw(12) << y << "  differ "
                      << std::setprecision(3) << 100 * rel << "% (bound "
                      << 100 * m.bound << "%)\n";
            if (rel > m.bound)
                fail(name + " " + m.name + " differs by more than its bound");
        }
        const auto mine = a.exact.find(name);
        const auto theirs = b.exact.find(name);
        if (mine != a.exact.end())
            for (const auto &[k, v] : mine->second)
                if (theirs == b.exact.end() || !theirs->second.count(k) ||
                    theirs->second.at(k) != v)
                    fail(name + " exact count " + k + " differs");
    }
    std::cout << (ok ? "repeat check passed" : "repeat check FAILED")
              << "\n";
    return ok ? 0 : 1;
}

} // namespace aurora::perf
