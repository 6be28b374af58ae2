/**
 * @file
 * aurora_lint — static analyzer front end.
 *
 * Usage:
 *   aurora_lint lint-config [--budget RBE] [--json] [key=value ...]
 *   aurora_lint lint-trace FILE [--profile NAME] [--json]
 *   aurora_lint analyze-config [--profile NAME|int|fp|all]
 *                              [--budget RBE] [--min-ipc IPC]
 *                              [--json|--csv] [key=value ...]
 *   aurora_lint analyze-grid [--profile NAME|int|fp|all]
 *                            [--budget RBE] [--min-ipc IPC]
 *                            [--vary key=v1,v2,... ...] [--grid FILE]
 *                            [--json|--csv] [key=value ...]
 *   aurora_lint explain AURxxx
 *   aurora_lint list
 *
 * lint-config builds a machine exactly as aurora_sim would (same
 * key=value overrides, see src/core/config_io.hh), then runs every
 * static check — the cross-field lints, the structural deadlock
 * detector over the resource graph, and optionally the Table 2 RBE
 * area budget — without ever executing a cycle. lint-trace verifies a
 * captured trace file in one pass, optionally against the instruction
 * mix of a declared workload profile.
 *
 * analyze-config runs the Little's-law bottleneck model
 * (docs/model.md) on top of the lint: per-profile IPC bound, binding
 * resource, per-station demand/slack table, and the AUR040-AUR042
 * advisories. analyze-grid ranks a whole grid — the base spec crossed
 * with every --vary axis (or one point per line of --grid FILE) —
 * by predicted bound vs. Table 2 RBE and flags dominated points
 * (AUR043) that a guided search should skip. Both run zero simulated
 * cycles; advisories are warnings and never affect the exit status.
 *
 * explain prints the catalog entry behind any diagnostic ID (unknown
 * IDs list the nearest valid ones); list enumerates the catalog.
 *
 * Exit status: 0 clean (warnings allowed), 1 any error-severity
 * finding or a usage/SimError failure — so CI can gate on it.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/explore.hh"
#include "analyze/lint_config.hh"
#include "analyze/model.hh"
#include "analyze/verify_trace.hh"
#include "core/config_io.hh"
#include "trace/spec_profiles.hh"
#include "util/env.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: aurora_lint lint-config [--budget RBE] [--json]\n"
        << "                               [key=value ...]\n"
        << "       aurora_lint lint-trace FILE [--profile NAME] "
           "[--json]\n"
        << "       aurora_lint analyze-config [--profile "
           "NAME|int|fp|all]\n"
        << "                               [--budget RBE] "
           "[--min-ipc IPC]\n"
        << "                               [--json|--csv] "
           "[key=value ...]\n"
        << "       aurora_lint analyze-grid [--profile "
           "NAME|int|fp|all]\n"
        << "                               [--budget RBE] "
           "[--min-ipc IPC]\n"
        << "                               [--vary key=v1,v2,... "
           "...] [--grid FILE]\n"
        << "                               [--json|--csv] "
           "[key=value ...]\n"
        << "       aurora_lint explain AURxxx\n"
        << "       aurora_lint list\n";
    std::exit(2);
}

double
realOption(const std::string &option, const std::string &value)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(value, &pos);
        if (pos == value.size())
            return v;
    } catch (const std::exception &) {
    }
    util::raiseError(util::SimErrorCode::BadConfig, "option ", option,
                     ": bad numeric value '", value, "'");
}

/** Print findings (text or JSON) and map them to an exit status. */
int
report(std::vector<analyze::Diagnostic> findings, bool json)
{
    if (json) {
        // Sorted so multi-finding output is byte-stable across
        // analyzer-internal emission-order changes — goldens and
        // diffs depend on it.
        analyze::sortDiagnostics(findings);
        std::cout << analyze::toJson(findings);
    } else if (findings.empty()) {
        std::cout << "clean\n";
    } else {
        std::cout << analyze::formatDiagnostics(findings);
    }
    return analyze::hasErrors(findings) ? 1 : 0;
}

/** --profile value -> list of workload profiles ("all" default). */
std::vector<trace::WorkloadProfile>
resolveProfiles(const std::string &name)
{
    return trace::suiteByName(name.empty() ? "all" : name);
}

std::string
fixed(double v, int digits = 6)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

int
analyzeConfigCmd(const std::vector<std::string> &args)
{
    analyze::LintOptions lint_options;
    analyze::AdviseOptions advise;
    bool json = false;
    bool csv = false;
    std::string profile_name;
    std::string spec;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--budget" && i + 1 < args.size()) {
            ++i;
            lint_options.rbe_budget = realOption("--budget", args[i]);
        } else if (args[i] == "--min-ipc" && i + 1 < args.size()) {
            ++i;
            advise.min_ipc = realOption("--min-ipc", args[i]);
        } else if (args[i] == "--profile" && i + 1 < args.size()) {
            profile_name = args[++i];
        } else if (args[i] == "--json") {
            json = true;
        } else if (args[i] == "--csv") {
            csv = true;
        } else if (args[i].find('=') != std::string::npos) {
            spec += args[i] + " ";
        } else {
            std::cerr << "unknown argument: " << args[i] << "\n";
            usage();
        }
    }
    const core::MachineConfig machine = core::parseMachineSpec(spec);
    std::vector<analyze::Diagnostic> findings =
        analyze::lintConfig(machine, lint_options);
    if (analyze::hasErrors(findings)) {
        // The bound of an uninstantiable machine is meaningless;
        // report the lint verdict alone, same exit contract.
        if (!json && !csv)
            std::cout << "analyze-config: configuration rejected by "
                         "lint, model withheld\n";
        return report(std::move(findings), json);
    }

    const std::vector<trace::WorkloadProfile> profiles =
        resolveProfiles(profile_name);
    std::vector<analyze::ModelResult> results;
    results.reserve(profiles.size());
    for (const trace::WorkloadProfile &p : profiles)
        results.push_back(analyze::predictBound(machine, p));
    for (analyze::Diagnostic &d :
         analyze::adviseModel(machine, profiles, advise))
        findings.push_back(std::move(d));
    analyze::sortDiagnostics(findings);

    if (csv) {
        std::cout << "profile,ipc_bound,cpi_bound,binding,rbe\n";
        for (std::size_t i = 0; i < profiles.size(); ++i)
            std::cout << profiles[i].name << ','
                      << fixed(results[i].ipc_bound) << ','
                      << fixed(results[i].cpi_bound) << ','
                      << analyze::resourceName(results[i].binding)
                      << ',' << fixed(results[i].rbe_total, 1)
                      << '\n';
        return analyze::hasErrors(findings) ? 1 : 0;
    }
    if (json) {
        std::ostringstream out;
        out << "{\n  \"machine\": \""
            << core::describe(machine) << "\",\n  \"rbe\": "
            << fixed(analyze::pricedRbe(machine), 1)
            << ",\n  \"profiles\": [";
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            const analyze::ModelResult &r = results[i];
            out << (i ? "," : "") << "\n    {\"name\": \""
                << profiles[i].name << "\", \"ipc_bound\": "
                << fixed(r.ipc_bound) << ", \"cpi_bound\": "
                << fixed(r.cpi_bound) << ", \"binding\": \""
                << analyze::resourceName(r.binding)
                << "\", \"resources\": [";
            for (std::size_t s = 0; s < analyze::NUM_RESOURCES; ++s) {
                const analyze::ResourceDemand &d = r.resources[s];
                out << (s ? "," : "") << "\n      {\"name\": \""
                    << analyze::resourceName(d.resource)
                    << "\", \"demand\": " << fixed(d.demand)
                    << ", \"capacity\": " << fixed(d.capacity)
                    << ", \"ipc_bound\": " << fixed(d.ipc_bound)
                    << ", \"slack\": " << fixed(d.slack)
                    << ", \"rbe\": " << fixed(d.rbe, 1) << "}";
            }
            out << "\n    ]}";
        }
        out << "\n  ],\n  \"diagnostics\": ";
        const std::string diags = analyze::toJson(findings);
        // Indent-free embed: toJson already ends with exactly one
        // newline; strip it so the document closes cleanly.
        out << diags.substr(0, diags.size() - 1) << "\n}\n";
        std::cout << out.str();
        return analyze::hasErrors(findings) ? 1 : 0;
    }

    std::cout << "machine: " << core::describe(machine) << "\n"
              << "priced area: "
              << fixed(analyze::pricedRbe(machine), 1) << " RBE\n";
    for (std::size_t i = 0; i < profiles.size(); ++i)
        std::cout << "profile " << profiles[i].name << ": "
                  << results[i].summary() << "\n";
    if (profiles.size() == 1) {
        // Single-profile runs get the full station table — the
        // audit view behind a surprising bound.
        std::cout << "\nresource      demand  capacity     bound  "
                     "slack\n";
        for (const analyze::ResourceDemand &d :
             results[0].resources) {
            char line[128];
            std::snprintf(
                line, sizeof(line), "%-12s %7.4f %9.3f %9.3f %6.2f\n",
                analyze::resourceName(d.resource), d.demand,
                d.capacity,
                std::min(d.ipc_bound, 9999.0),
                std::min(d.slack, 9999.0));
            std::cout << line;
        }
    }
    if (!findings.empty())
        std::cout << "\n" << analyze::formatDiagnostics(findings);
    return analyze::hasErrors(findings) ? 1 : 0;
}

/** One analyze-grid point: the override string that derives it. */
struct GridSpec
{
    std::string overrides; ///< appended to the base spec
    core::MachineConfig machine;
};

/** Cross the base spec with every --vary axis (first axis slowest). */
void
crossVary(const std::string &base,
          const std::vector<std::string> &vary_axes,
          std::vector<std::string> &out_specs)
{
    out_specs.push_back("");
    for (const std::string &axis : vary_axes) {
        const std::size_t eq = axis.find('=');
        if (eq == std::string::npos || eq == 0)
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--vary expects key=v1,v2,... got '",
                             axis, "'");
        const std::string key = axis.substr(0, eq);
        std::vector<std::string> values;
        std::stringstream list(axis.substr(eq + 1));
        std::string v;
        while (std::getline(list, v, ','))
            if (!v.empty())
                values.push_back(v);
        if (values.empty())
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--vary ", key, " lists no values");
        std::vector<std::string> next;
        next.reserve(out_specs.size() * values.size());
        for (const std::string &prefix : out_specs)
            for (const std::string &value : values)
                next.push_back(prefix.empty()
                                   ? key + "=" + value
                                   : prefix + " " + key + "=" +
                                         value);
        out_specs = std::move(next);
        if (out_specs.size() > 65536)
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--vary cross product exceeds 65536 "
                             "points");
    }
    (void)base;
}

int
analyzeGridCmd(const std::vector<std::string> &args)
{
    analyze::LintOptions lint_options;
    analyze::ExploreOptions explore_options;
    bool json = false;
    bool csv = false;
    std::string profile_name;
    std::string base;
    std::string grid_file;
    std::vector<std::string> vary_axes;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--budget" && i + 1 < args.size()) {
            ++i;
            lint_options.rbe_budget = realOption("--budget", args[i]);
        } else if (args[i] == "--min-ipc" && i + 1 < args.size()) {
            ++i;
            explore_options.min_ipc =
                realOption("--min-ipc", args[i]);
        } else if (args[i] == "--profile" && i + 1 < args.size()) {
            profile_name = args[++i];
        } else if (args[i] == "--vary" && i + 1 < args.size()) {
            vary_axes.push_back(args[++i]);
        } else if (args[i] == "--grid" && i + 1 < args.size()) {
            grid_file = args[++i];
        } else if (args[i] == "--json") {
            json = true;
        } else if (args[i] == "--csv") {
            csv = true;
        } else if (args[i].find('=') != std::string::npos) {
            base += args[i] + " ";
        } else {
            std::cerr << "unknown argument: " << args[i] << "\n";
            usage();
        }
    }

    std::vector<std::string> point_specs;
    if (!grid_file.empty()) {
        std::ifstream in(grid_file);
        if (!in)
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--grid: cannot open '", grid_file, "'");
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t start =
                line.find_first_not_of(" \t\r");
            if (start == std::string::npos || line[start] == '#')
                continue;
            point_specs.push_back(line.substr(start));
        }
        if (point_specs.empty())
            util::raiseError(util::SimErrorCode::BadConfig,
                             "--grid: '", grid_file,
                             "' lists no points");
    } else {
        crossVary(base, vary_axes, point_specs);
    }

    std::vector<GridSpec> points;
    points.reserve(point_specs.size());
    std::vector<core::MachineConfig> machines;
    machines.reserve(point_specs.size());
    for (const std::string &overrides : point_specs) {
        GridSpec point;
        point.overrides = overrides;
        point.machine =
            core::parseMachineSpec(base + " " + overrides);
        machines.push_back(point.machine);
        points.push_back(std::move(point));
    }

    const std::vector<trace::WorkloadProfile> profiles =
        resolveProfiles(profile_name);
    analyze::ExploreResult explored =
        analyze::exploreGrid(machines, profiles, explore_options);

    // Per-point lint, errors only: a grid point that cannot be
    // instantiated must fail the run, but repeating every sizing
    // warning across hundreds of near-identical points would bury
    // the ranking. lint-config exists for the full per-point story.
    std::vector<analyze::Diagnostic> findings;
    for (std::size_t i = 0; i < machines.size(); ++i) {
        for (analyze::Diagnostic &d :
             analyze::lintConfig(machines[i], lint_options)) {
            if (d.severity != analyze::Severity::Error)
                continue;
            d.job = static_cast<int>(i);
            findings.push_back(std::move(d));
        }
    }
    for (analyze::Diagnostic &d : explored.diagnostics)
        findings.push_back(std::move(d));
    analyze::sortDiagnostics(findings);

    auto point_spec = [&](std::size_t i) -> std::string {
        if (!points[i].overrides.empty())
            return points[i].overrides;
        std::string trimmed = base;
        while (!trimmed.empty() && trimmed.back() == ' ')
            trimmed.pop_back();
        return trimmed.empty() ? "baseline" : trimmed;
    };

    if (csv) {
        std::cout << "point,rbe,ipc_bound,binding,dominated,"
                     "dominated_by,spec\n";
        for (const analyze::GridPointModel &p : explored.points)
            std::cout << p.index << ',' << fixed(p.rbe, 1) << ','
                      << fixed(p.bound) << ','
                      << analyze::resourceName(p.binding) << ','
                      << (p.dominated ? 1 : 0) << ','
                      << (p.dominated
                              ? std::to_string(p.dominated_by)
                              : std::string())
                      << ',' << point_spec(p.index) << '\n';
        return analyze::hasErrors(findings) ? 1 : 0;
    }
    if (json) {
        std::ostringstream out;
        out << "{\n  \"base\": \"" << base << "\",\n  \"points\": [";
        for (std::size_t i = 0; i < explored.points.size(); ++i) {
            const analyze::GridPointModel &p = explored.points[i];
            out << (i ? "," : "") << "\n    {\"index\": " << p.index
                << ", \"spec\": \"" << point_spec(p.index)
                << "\", \"rbe\": " << fixed(p.rbe, 1)
                << ", \"ipc_bound\": " << fixed(p.bound)
                << ", \"binding\": \""
                << analyze::resourceName(p.binding)
                << "\", \"dominated\": "
                << (p.dominated ? "true" : "false");
            if (p.dominated)
                out << ", \"dominated_by\": " << p.dominated_by;
            out << "}";
        }
        out << "\n  ],\n  \"frontier\": [";
        for (std::size_t i = 0; i < explored.frontier.size(); ++i)
            out << (i ? ", " : "") << explored.frontier[i];
        out << "],\n  \"diagnostics\": ";
        const std::string diags = analyze::toJson(findings);
        out << diags.substr(0, diags.size() - 1) << "\n}\n";
        std::cout << out.str();
        return analyze::hasErrors(findings) ? 1 : 0;
    }

    std::cout << "grid: " << explored.points.size() << " points, "
              << explored.frontier.size()
              << " on the predicted frontier, "
              << explored.points.size() - explored.frontier.size()
              << " dominated\n";
    for (const analyze::GridPointModel &p : explored.points) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "point %3zu  %8.1f RBE  bound %7.3f  %-11s  ",
                      p.index, p.rbe, p.bound,
                      analyze::resourceName(p.binding));
        std::cout << line
                  << (p.dominated
                          ? "dominated by " +
                                std::to_string(p.dominated_by)
                          : std::string("frontier"))
                  << "  [" << point_spec(p.index) << "]\n";
    }
    if (!findings.empty())
        std::cout << "\n" << analyze::formatDiagnostics(findings);
    return analyze::hasErrors(findings) ? 1 : 0;
}

int
lintConfigCmd(const std::vector<std::string> &args)
{
    analyze::LintOptions options;
    bool json = false;
    std::string spec;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--budget" && i + 1 < args.size()) {
            ++i;
            options.rbe_budget = realOption("--budget", args[i]);
        } else if (args[i] == "--json") {
            json = true;
        } else if (args[i].find('=') != std::string::npos) {
            spec += args[i] + " ";
        } else {
            std::cerr << "unknown argument: " << args[i] << "\n";
            usage();
        }
    }
    const core::MachineConfig machine = core::parseMachineSpec(spec);
    return report(analyze::lintConfig(machine, options), json);
}

int
lintTraceCmd(const std::vector<std::string> &args)
{
    std::string path;
    std::string profile_name;
    bool json = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--profile" && i + 1 < args.size()) {
            profile_name = args[++i];
        } else if (args[i] == "--json") {
            json = true;
        } else if (path.empty() && !args[i].empty() &&
                   args[i][0] != '-') {
            path = args[i];
        } else {
            std::cerr << "unknown argument: " << args[i] << "\n";
            usage();
        }
    }
    if (path.empty())
        usage();

    trace::WorkloadProfile profile;
    analyze::TraceCheckOptions options;
    if (!profile_name.empty()) {
        profile = trace::profileByName(profile_name);
        options.profile = &profile;
    }
    const analyze::TraceReport result =
        analyze::verifyTrace(path, options);
    if (!json)
        std::cout << result.summary();
    return report(result.diagnostics, json);
}

int
explainCmd(const std::string &id)
{
    const analyze::DiagnosticInfo *info = analyze::findDiagnostic(id);
    if (info == nullptr) {
        std::string nearest;
        for (const std::string &candidate :
             analyze::nearestDiagnosticIds(id))
            nearest += (nearest.empty() ? "" : ", ") + candidate;
        std::cerr << "aurora_lint: unknown diagnostic '" << id
                  << "' (nearest: " << nearest
                  << "; 'aurora_lint list' shows all)\n";
        return 1;
    }
    std::cout << info->id << " (" << analyze::severityName(info->severity)
              << "): " << info->title << "\n\n"
              << info->rationale << "\n\nfix: " << info->hint << "\n";
    return 0;
}

int
listCmd()
{
    for (const analyze::DiagnosticInfo &info : analyze::catalog())
        std::cout << info.id << "  "
                  << analyze::severityName(info.severity) << "  "
                  << info.title << "\n";
    return 0;
}

int
run(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    if (command == "lint-config")
        return lintConfigCmd(args);
    if (command == "lint-trace")
        return lintTraceCmd(args);
    if (command == "analyze-config")
        return analyzeConfigCmd(args);
    if (command == "analyze-grid")
        return analyzeGridCmd(args);
    if (command == "explain") {
        if (args.size() != 1)
            usage();
        return explainCmd(args[0]);
    }
    if (command == "list")
        return listCmd();
    if (command == "--help" || command == "-h")
        usage();
    std::cerr << "unknown command: " << command << "\n";
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const util::SimError &e) {
        std::cerr << "aurora_lint: " << e.what() << "\n";
        return 1;
    }
}
