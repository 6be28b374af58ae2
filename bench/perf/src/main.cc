/**
 * @file
 * aurora_perf — the repository benchmark. bench/perf/run.sh builds it
 * and is the way to run it; see bench/perf/README.md.
 *
 *   aurora_perf run --workloads a,b [--seed S] [--seconds T]
 *                   [--trace 0|1] [--smoke] [--results FILE]
 *                   [--git-rev REV]
 *   aurora_perf compare --bounds BENCHMARK.json
 *                   --parent P1.json ... --change C1.json ...
 *   aurora_perf check-repeat --bounds BENCHMARK.json A.json B.json
 *   aurora_perf rep ...           (one repetition; spawned by `run`)
 */

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "perf.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;
using namespace aurora::perf;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: aurora_perf run --workloads a,b [--seed S] "
           "[--seconds T] [--trace 0|1]\n"
           "                      [--smoke] [--results FILE] "
           "[--git-rev REV]\n"
           "       aurora_perf compare --bounds BENCHMARK.json "
           "--parent P.json... --change C.json...\n"
           "       aurora_perf check-repeat --bounds BENCHMARK.json "
           "A.json B.json\n";
    std::exit(2);
}

std::uint64_t
unsignedArg(const std::string &option, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0')
        util::raiseError(util::SimErrorCode::BadConfig, "option ", option,
                         ": bad number '", value, "'");
    return v;
}

double
realArg(const std::string &option, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !(v >= 0))
        util::raiseError(util::SimErrorCode::BadConfig, "option ", option,
                         ": bad number '", value, "'");
    return v;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
run(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    std::size_t i = 0;
    const auto next = [&] {
        if (i + 1 >= args.size())
            usage();
        return args[++i];
    };

    if (command == "rep") {
        RepArgs a;
        for (; i < args.size(); ++i) {
            const std::string &o = args[i];
            if (o == "--workload") a.workload = next();
            else if (o == "--seed") a.seed = unsignedArg(o, next());
            else if (o == "--mode") a.mode = next();
            else if (o == "--smoke") a.smoke = true;
            else if (o == "--spawn-us") a.spawn_us = realArg(o, next());
            else if (o == "--workdir") a.workdir = next();
            else if (o == "--cpu")
                a.cpu = static_cast<int>(unsignedArg(o, next()));
            else if (o == "--spans") a.spans = next();
            else if (o == "--trace-id") a.trace_id = unsignedArg(o, next());
            else if (o == "--parent-span")
                a.parent_span = unsignedArg(o, next());
            else if (o == "--track")
                a.track = static_cast<std::uint32_t>(unsignedArg(o, next()));
            else usage();
        }
        return runRep(a);
    }
    if (command == "run") {
        RunArgs r;
        for (; i < args.size(); ++i) {
            const std::string &o = args[i];
            if (o == "--workloads" || o == "--workload")
                r.workloads = splitList(next());
            else if (o == "--seed") r.seed = unsignedArg(o, next());
            else if (o == "--seconds") r.seconds = realArg(o, next());
            else if (o == "--trace") r.traced = unsignedArg(o, next()) != 0;
            else if (o == "--smoke") r.smoke = true;
            else if (o == "--results") r.results = next();
            else if (o == "--git-rev") r.git_rev = next();
            else usage();
        }
        if (r.workloads.empty())
            r.workloads = workloadNames();
        for (const std::string &name : r.workloads)
            (void)findWorkload(name, r.smoke); // reject typos up front
        return runBenchmark(r);
    }
    if (command == "compare") {
        std::string bounds;
        std::vector<std::string> parents, changes;
        std::vector<std::string> *side = nullptr;
        for (; i < args.size(); ++i) {
            const std::string &o = args[i];
            if (o == "--bounds") bounds = next();
            else if (o == "--parent") side = &parents;
            else if (o == "--change") side = &changes;
            else if (side) side->push_back(o);
            else usage();
        }
        if (bounds.empty() || parents.empty() || changes.empty())
            usage();
        return compareResults(bounds, parents, changes);
    }
    if (command == "check-repeat") {
        std::string bounds;
        std::vector<std::string> files;
        for (; i < args.size(); ++i) {
            if (args[i] == "--bounds") bounds = next();
            else files.push_back(args[i]);
        }
        if (bounds.empty() || files.size() != 2)
            usage();
        return checkRepeat(bounds, files[0], files[1]);
    }
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "aurora_perf: " << e.what() << "\n";
        return 1;
    }
}
