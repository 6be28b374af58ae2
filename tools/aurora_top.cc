/**
 * @file
 * aurora_top — live metrics console for the aurora_serve daemon.
 *
 * Usage:
 *   aurora_top --socket PATH [--tenant NAME] [--watch SECONDS]
 *              [--raw prom|json] [--timeout-ms N]
 *
 * One-shot by default: polls Status and Metrics once, renders a
 * compact dashboard, and exits. With --watch N it keeps the
 * connection open and refreshes every N seconds until interrupted.
 * --raw dumps the daemon's exposition verbatim (Prometheus text or
 * JSON) instead of the dashboard — the mode to use when piping into
 * a scrape pipeline or jq.
 *
 * A daemon that speaks another protocol version refuses the Hello
 * (AUR207), which aurora_top reports instead of rendering an empty
 * screen.
 *
 * Exit codes: 0 ok; 1 connection/protocol errors; 2 usage.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire.hh"
#include "util/env.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"

namespace
{

using namespace aurora;
namespace wire = serve::wire;

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: aurora_top --socket PATH [--tenant NAME]\n"
              << "                  [--watch SECONDS] [--raw prom|json]\n"
              << "                  [--timeout-ms N]\n";
    std::exit(2);
}

struct Options
{
    std::string socket_path;
    std::string tenant = "aurora_top";
    std::uint64_t watch_seconds = 0;
    bool raw = false;
    wire::MetricsFormat format = wire::MetricsFormat::Prometheus;
    std::uint64_t timeout_ms = 0;
};

/**
 * One parsed Prometheus sample: "name value" or
 * "name{key=\"label\"} value". Enough of the text format for our own
 * exposition — this is not a general scraper.
 */
struct Sample
{
    std::string name;
    std::string label;
    double value = 0.0;
};

std::vector<Sample>
parsePrometheus(const std::string &body)
{
    std::vector<Sample> samples;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        Sample s;
        s.value = std::strtod(line.c_str() + space + 1, nullptr);
        std::string key = line.substr(0, space);
        const auto brace = key.find('{');
        if (brace != std::string::npos) {
            // Single-label series: name{tenant="alice"}.
            const auto q1 = key.find('"', brace);
            const auto q2 =
                q1 == std::string::npos ? q1 : key.find('"', q1 + 1);
            if (q2 != std::string::npos)
                s.label = key.substr(q1 + 1, q2 - q1 - 1);
            key.resize(brace);
        }
        s.name = std::move(key);
        samples.push_back(std::move(s));
    }
    return samples;
}

void
printSection(const char *title, const std::vector<Sample> &samples,
             const std::string &prefix)
{
    bool any = false;
    for (const auto &s : samples) {
        if (s.name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (!any) {
            std::cout << title << "\n";
            any = true;
        }
        std::cout << "  " << s.name.substr(prefix.size());
        if (!s.label.empty())
            std::cout << "{" << s.label << "}";
        std::cout << " = " << s.value << "\n";
    }
}

void
renderDashboard(const wire::StatusReportMsg &status,
                const std::string &prom_body)
{
    std::cout << "aurora_serve"
              << (status.draining ? " [DRAINING]" : "") << "  grids "
              << status.grids << " (" << status.done_grids
              << " done)  jobs queued=" << status.queued_jobs
              << " running=" << status.running_jobs
              << " done=" << status.done_jobs << "\n\n";
    const auto samples = parsePrometheus(prom_body);
    printSection("serve", samples, "aurora_serve_");
    // Anything outside the known family, verbatim — a renamed metric
    // should show up oddly placed rather than vanish.
    bool any = false;
    for (const auto &s : samples) {
        if (s.name.compare(0, 13, "aurora_serve_") == 0)
            continue;
        if (!any) {
            std::cout << "other\n";
            any = true;
        }
        std::cout << "  " << s.name << " = " << s.value << "\n";
    }
}

/**
 * Receive frames until one of the wanted type arrives, skipping
 * broadcasts (Draining, stray Progress/Result from the daemon's
 * fan-out). A Rejected frame is fatal — surfaced as the reason.
 */
std::string
recvOfType(int fd, wire::FrameDecoder &decoder, const Options &opt,
           wire::MsgType wanted)
{
    while (true) {
        const auto payload =
            wire::recvFrame(fd, decoder, opt.timeout_ms);
        if (!payload)
            util::raiseError(util::SimErrorCode::BadWire,
                             "daemon closed the connection");
        const auto type = wire::peekType(*payload);
        if (type == wanted)
            return *payload;
        if (type == wire::MsgType::Rejected) {
            const auto rejected = wire::decodeRejected(*payload);
            util::raiseError(util::SimErrorCode::BadWire, "daemon "
                             "rejected the poll (", rejected.id, "): ",
                             rejected.message);
        }
        // Draining and other broadcasts: note and keep waiting.
    }
}

int
run(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            opt.socket_path = argv[++i];
        } else if (arg == "--tenant" && i + 1 < argc) {
            opt.tenant = argv[++i];
        } else if (arg == "--watch" && i + 1 < argc) {
            opt.watch_seconds = countOption(arg, argv[++i]);
            if (opt.watch_seconds == 0)
                usage();
        } else if (arg == "--raw" && i + 1 < argc) {
            opt.raw = true;
            const std::string fmt = argv[++i];
            if (fmt == "prom")
                opt.format = wire::MetricsFormat::Prometheus;
            else if (fmt == "json")
                opt.format = wire::MetricsFormat::Json;
            else
                usage();
        } else if (arg == "--timeout-ms" && i + 1 < argc) {
            opt.timeout_ms = countOption(arg, argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage();
        }
    }
    if (opt.socket_path.empty())
        usage();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    const util::Fd fd = util::connectUnix(opt.socket_path);
    wire::FrameDecoder decoder;

    wire::HelloMsg hello;
    hello.tenant = opt.tenant;
    wire::sendFrame(fd.get(), wire::encode(hello));
    recvOfType(fd.get(), decoder, opt, wire::MsgType::Welcome);

    while (true) {
        wire::sendFrame(fd.get(), wire::encode(wire::StatusMsg{}));
        const auto status = wire::decodeStatusReport(recvOfType(
            fd.get(), decoder, opt, wire::MsgType::StatusReport));

        wire::MetricsMsg metrics;
        metrics.format = opt.raw ? opt.format
                                 : wire::MetricsFormat::Prometheus;
        wire::sendFrame(fd.get(), wire::encode(metrics));
        const auto report = wire::decodeMetricsReport(recvOfType(
            fd.get(), decoder, opt, wire::MsgType::MetricsReport));

        if (opt.watch_seconds != 0)
            std::cout << "\033[H\033[2J"; // home + clear, like top(1)
        if (opt.raw)
            std::cout << report.body;
        else
            renderDashboard(status, report.body);
        std::cout.flush();

        if (opt.watch_seconds == 0 || g_stop)
            return 0;
        for (std::uint64_t s = 0; s < opt.watch_seconds && !g_stop;
             ++s)
            std::this_thread::sleep_for(std::chrono::seconds(1));
        if (g_stop)
            return 0;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const util::SimError &e) {
        std::cerr << "aurora_top: " << e.what() << "\n";
        return 1;
    }
}
