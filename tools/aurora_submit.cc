/**
 * @file
 * aurora_submit — client for the aurora_serve sweep daemon.
 *
 * Usage:
 *   aurora_submit --socket PATH --tenant NAME [action] [options]
 *                 [key=value ...]
 *
 * Actions (default: submit a grid and stream its results):
 *   --attach FPHEX     re-attach to a grid by fingerprint: journaled
 *                      results replay first, live ones stream after
 *   --cancel FPHEX     cancel a grid (queued jobs finalize Cancelled)
 *   --status           print the daemon's status report
 *
 * Submit options:
 *   --bench NAME|int|fp|all   benchmark or suite (default espresso)
 *   --insts N                 instruction budget per job
 *   --label STR               human label for status listings
 *   --base-seed N             SweepOptions::base_seed
 *   --retries N               per-job retry budget
 *   --deadline-ms N           per-attempt deadline (Timeout, no retry)
 *   --backoff-ms N            linear retry backoff
 *   --cancel-on-disconnect    dropping this connection cancels the grid
 *   --no-wait                 print the fingerprint and exit once
 *                             accepted (re-attach later)
 *   --stats-csv FILE          write ok results as a stats CSV in job
 *                             order ('-' = stdout) — bit-identical to
 *                             aurora_sim --stats-csv of the same grid
 *   --timeout-ms N            per-frame receive timeout (0 = forever)
 *   --quiet                   suppress per-job and progress lines
 *   [key=value ...]           machine spec (see aurora_sim --describe)
 *
 * Exit codes: 0 all jobs ok; 1 rejected / job failures / errors;
 * 2 usage; 3 connection lost before the grid finished (the daemon
 * keeps or persists the grid — re-attach with --attach FPHEX).
 */

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "harness/journal.hh"
#include "serve/wire.hh"
#include "telemetry/export.hh"
#include "trace/spec_profiles.hh"
#include "util/env.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"

namespace
{

using namespace aurora;
namespace wire = serve::wire;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: aurora_submit --socket PATH --tenant NAME\n"
        << "                     [--attach FPHEX | --cancel FPHEX |"
           " --status]\n"
        << "                     [--bench NAME|int|fp|all] [--insts N]\n"
        << "                     [--label STR] [--base-seed N]\n"
        << "                     [--retries N] [--deadline-ms N]\n"
        << "                     [--backoff-ms N]\n"
        << "                     [--cancel-on-disconnect] [--no-wait]\n"
        << "                     [--stats-csv FILE] [--timeout-ms N]\n"
        << "                     [--quiet] [key=value ...]\n";
    std::exit(2);
}

/** Parse a grid fingerprint as printed by this tool (16 hex digits). */
std::uint64_t
fingerprintOption(const std::string &option, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 16);
    if (value.empty() || end == value.c_str() || *end != '\0')
        util::raiseError(util::SimErrorCode::BadConfig, "option ",
                         option, ": bad fingerprint '", value,
                         "' (expected hex digits)");
    return parsed;
}

std::string
fpHex(std::uint64_t fingerprint)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << fingerprint;
    return os.str();
}

/** Export destination: a file, or stdout when the path is "-". */
class Output
{
  public:
    explicit Output(const std::string &path)
    {
        if (path == "-")
            return;
        file_.open(path);
        if (!file_)
            util::raiseError(util::SimErrorCode::BadConfig,
                             "cannot open output file '", path, "'");
    }

    std::ostream &stream() { return file_.is_open() ? file_ : std::cout; }

  private:
    std::ofstream file_;
};

struct Options
{
    std::string socket_path;
    std::string tenant;
    std::string bench = "espresso";
    std::uint64_t insts = 400'000;
    std::string label;
    bool has_base_seed = false;
    std::uint64_t base_seed = 0;
    std::uint32_t retries = 0;
    std::uint64_t deadline_ms = 0;
    std::uint64_t backoff_ms = 0;
    bool cancel_on_disconnect = false;
    bool no_wait = false;
    std::string stats_csv;
    std::uint64_t timeout_ms = 0;
    bool quiet = false;
    std::string spec;

    enum class Action
    {
        Submit,
        Attach,
        Cancel,
        Status,
    };
    Action action = Action::Submit;
    std::uint64_t fingerprint = 0;
};

void
printRejected(const wire::RejectedMsg &rejected)
{
    std::cerr << "aurora_submit: rejected (" << rejected.id << ", "
              << util::errorCodeName(rejected.code)
              << "): " << rejected.message << "\n";
}

/** Hello/Welcome handshake; returns the daemon's draining flag. */
bool
handshake(int fd, wire::FrameDecoder &decoder, const Options &opt)
{
    wire::HelloMsg hello;
    hello.tenant = opt.tenant;
    wire::sendFrame(fd, wire::encode(hello));
    const auto reply = wire::recvFrame(fd, decoder, opt.timeout_ms);
    if (!reply)
        util::raiseError(util::SimErrorCode::BadWire,
                         "daemon closed the connection during the "
                         "handshake");
    if (wire::peekType(*reply) == wire::MsgType::Rejected) {
        // Surface the daemon's diagnostic (e.g. AUR207 protocol
        // skew) instead of a generic "expected Welcome" decode error.
        printRejected(wire::decodeRejected(*reply));
        util::raiseError(util::SimErrorCode::BadWire,
                         "daemon rejected the handshake");
    }
    const auto welcome = wire::decodeWelcome(*reply);
    if (welcome.version != wire::PROTOCOL_VERSION)
        util::raiseError(util::SimErrorCode::BadWire,
                         "daemon speaks protocol version ",
                         welcome.version, ", this client speaks ",
                         wire::PROTOCOL_VERSION);
    return welcome.draining;
}

/**
 * Stream one grid to completion: collect Result frames (indexed by
 * job), echo Progress heartbeats, stop at GridDone. Returns the
 * process exit code.
 */
int
streamGrid(int fd, wire::FrameDecoder &decoder, const Options &opt,
           std::uint64_t fingerprint, std::uint64_t total_jobs)
{
    std::map<std::uint64_t, harness::JournalRecord> records;
    bool failures = false;

    while (true) {
        const auto payload = wire::recvFrame(fd, decoder, opt.timeout_ms);
        if (!payload) {
            std::cerr << "aurora_submit: connection closed with "
                      << records.size() << "/" << total_jobs
                      << " results; the daemon keeps the grid — "
                         "re-attach with --attach "
                      << fpHex(fingerprint) << "\n";
            return 3;
        }
        switch (wire::peekType(*payload)) {
          case wire::MsgType::Result: {
            const auto msg = wire::decodeResult(*payload);
            if (msg.fingerprint != fingerprint)
                break;
            auto record = harness::decodeJournalRecord(msg.record);
            const auto index = record.job_index;
            if (!record.outcome.ok) {
                failures = true;
                if (!opt.quiet)
                    std::cerr << "job " << index << " failed ("
                              << util::errorCodeName(record.outcome.code)
                              << "): " << record.outcome.error << "\n";
            } else if (!opt.quiet) {
                std::cerr << "job " << index << " ok ("
                          << record.outcome.result.benchmark << ")"
                          << (record.outcome.resumed ? " [resumed]" : "")
                          << "\n";
            }
            records.emplace(index, std::move(record));
            break;
          }
          case wire::MsgType::Progress: {
            const auto msg = wire::decodeProgress(*payload);
            if (msg.fingerprint == fingerprint && !opt.quiet)
                std::cerr << "progress " << msg.done << "/" << msg.total
                          << " (ok=" << msg.ok
                          << " failed=" << msg.failed
                          << " timed_out=" << msg.timed_out
                          << " cancelled=" << msg.cancelled << ")\n";
            break;
          }
          case wire::MsgType::GridDone: {
            const auto msg = wire::decodeGridDone(*payload);
            if (msg.fingerprint != fingerprint)
                break;
            std::cout << "grid " << fpHex(fingerprint)
                      << " done: ok=" << msg.ok
                      << " failed=" << msg.failed
                      << " timed_out=" << msg.timed_out
                      << " cancelled=" << msg.cancelled
                      << " resumed=" << msg.resumed << "\n";
            if (!opt.stats_csv.empty()) {
                Output out(opt.stats_csv);
                out.stream() << telemetry::statsCsvHeader() << '\n';
                for (const auto &[index, record] : records) {
                    (void)index;
                    if (record.outcome.ok)
                        out.stream()
                            << telemetry::statsCsvRow(
                                   record.outcome.result)
                            << '\n';
                }
            }
            return failures || msg.failed > 0 || msg.timed_out > 0 ||
                           msg.cancelled > 0
                       ? 1
                       : 0;
          }
          case wire::MsgType::Draining:
            if (!opt.quiet)
                std::cerr << "aurora_submit: daemon is draining — "
                             "running jobs finish, queued work "
                             "persists for the next daemon\n";
            break;
          case wire::MsgType::Rejected:
            printRejected(wire::decodeRejected(*payload));
            return 1;
          default:
            break;
        }
    }
}

int
doSubmit(int fd, wire::FrameDecoder &decoder, const Options &opt)
{
    // Parse the machine spec locally first: a typo fails here with the
    // usual BadConfig message instead of a remote rejection, and the
    // daemon receives the canonical (describe round-tripped) form.
    const core::MachineConfig machine = core::parseMachineSpec(opt.spec);
    const std::string machine_spec = core::describe(machine);

    const std::vector<trace::WorkloadProfile> suite =
        trace::suiteByName(opt.bench);

    wire::SubmitMsg submit;
    submit.label = opt.label;
    submit.cancel_on_disconnect = opt.cancel_on_disconnect;
    submit.has_base_seed = opt.has_base_seed;
    submit.base_seed = opt.base_seed;
    submit.deadline_ms = opt.deadline_ms;
    submit.retries = opt.retries;
    submit.backoff_ms = opt.backoff_ms;
    for (const auto &profile : suite)
        submit.jobs.push_back({machine_spec, profile.name, opt.insts});
    wire::sendFrame(fd, wire::encode(submit));

    const auto reply = wire::recvFrame(fd, decoder, opt.timeout_ms);
    if (!reply)
        util::raiseError(util::SimErrorCode::BadWire,
                         "daemon closed the connection before "
                         "answering the submission");
    if (wire::peekType(*reply) == wire::MsgType::Rejected) {
        printRejected(wire::decodeRejected(*reply));
        return 1;
    }
    const auto accepted = wire::decodeAccepted(*reply);
    std::cout << "accepted " << fpHex(accepted.fingerprint) << " ("
              << accepted.jobs << " jobs)";
    if (accepted.trace_id != 0)
        std::cout << " trace " << fpHex(accepted.trace_id);
    std::cout << "\n";
    if (opt.no_wait)
        return 0;
    return streamGrid(fd, decoder, opt, accepted.fingerprint,
                      accepted.jobs);
}

int
doAttach(int fd, wire::FrameDecoder &decoder, const Options &opt)
{
    wire::AttachMsg attach;
    attach.fingerprint = opt.fingerprint;
    wire::sendFrame(fd, wire::encode(attach));

    const auto reply = wire::recvFrame(fd, decoder, opt.timeout_ms);
    if (!reply)
        util::raiseError(util::SimErrorCode::BadWire,
                         "daemon closed the connection before "
                         "answering the attach");
    if (wire::peekType(*reply) == wire::MsgType::Rejected) {
        printRejected(wire::decodeRejected(*reply));
        return 1;
    }
    const auto accepted = wire::decodeAccepted(*reply);
    std::cout << "attached " << fpHex(accepted.fingerprint) << " ("
              << accepted.done << "/" << accepted.jobs << " done)\n";
    return streamGrid(fd, decoder, opt, accepted.fingerprint,
                      accepted.jobs);
}

int
doCancel(int fd, wire::FrameDecoder &decoder, const Options &opt)
{
    wire::CancelMsg cancel;
    cancel.fingerprint = opt.fingerprint;
    wire::sendFrame(fd, wire::encode(cancel));

    const auto reply = wire::recvFrame(fd, decoder, opt.timeout_ms);
    if (!reply)
        util::raiseError(util::SimErrorCode::BadWire,
                         "daemon closed the connection before "
                         "answering the cancel");
    if (wire::peekType(*reply) == wire::MsgType::Rejected) {
        printRejected(wire::decodeRejected(*reply));
        return 1;
    }
    const auto ok = wire::decodeCancelOk(*reply);
    std::cout << "cancelled " << fpHex(ok.fingerprint) << ": "
              << ok.cancelled_jobs << " queued jobs dropped\n";
    return 0;
}

int
doStatus(int fd, wire::FrameDecoder &decoder, const Options &opt)
{
    wire::sendFrame(fd, wire::encode(wire::StatusMsg{}));
    const auto reply = wire::recvFrame(fd, decoder, opt.timeout_ms);
    if (!reply)
        util::raiseError(util::SimErrorCode::BadWire,
                         "daemon closed the connection before "
                         "answering the status request");
    const auto status = wire::decodeStatusReport(*reply);
    std::cout << "draining: " << (status.draining ? "yes" : "no")
              << "\n"
              << "grids: " << status.grids << " (" << status.done_grids
              << " done)\n"
              << "jobs: queued=" << status.queued_jobs
              << " running=" << status.running_jobs
              << " done=" << status.done_jobs << "\n";
    return 0;
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
        } else if (arg == "--attach" && i + 1 < argc) {
            opt.action = Options::Action::Attach;
            opt.fingerprint = fingerprintOption(arg, argv[++i]);
        } else if (arg == "--cancel" && i + 1 < argc) {
            opt.action = Options::Action::Cancel;
            opt.fingerprint = fingerprintOption(arg, argv[++i]);
        } else if (arg == "--status") {
            opt.action = Options::Action::Status;
        } else if (arg == "--bench" && i + 1 < argc) {
            opt.bench = argv[++i];
        } else if (arg == "--insts" && i + 1 < argc) {
            opt.insts = countOption(arg, argv[++i]);
        } else if (arg == "--label" && i + 1 < argc) {
            opt.label = argv[++i];
        } else if (arg == "--base-seed" && i + 1 < argc) {
            opt.has_base_seed = true;
            opt.base_seed = countOption(arg, argv[++i]);
        } else if (arg == "--retries" && i + 1 < argc) {
            opt.retries = countOption<std::uint32_t>(arg, argv[++i]);
        } else if (arg == "--deadline-ms" && i + 1 < argc) {
            opt.deadline_ms = countOption(arg, argv[++i]);
        } else if (arg == "--backoff-ms" && i + 1 < argc) {
            opt.backoff_ms = countOption(arg, argv[++i]);
        } else if (arg == "--cancel-on-disconnect") {
            opt.cancel_on_disconnect = true;
        } else if (arg == "--no-wait") {
            opt.no_wait = true;
        } else if (arg == "--stats-csv" && i + 1 < argc) {
            opt.stats_csv = argv[++i];
        } else if (arg == "--timeout-ms" && i + 1 < argc) {
            opt.timeout_ms = countOption(arg, argv[++i]);
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else if (arg.find('=') != std::string::npos) {
            opt.spec += arg + " ";
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage();
        }
    }
    if (opt.socket_path.empty() || opt.tenant.empty())
        usage();

    const util::Fd fd = util::connectUnix(opt.socket_path);
    wire::FrameDecoder decoder;
    const bool draining = handshake(fd.get(), decoder, opt);
    if (draining && opt.action == Options::Action::Submit) {
        std::cerr << "aurora_submit: daemon is draining and refuses "
                     "new grids (AUR204)\n";
        return 1;
    }

    switch (opt.action) {
      case Options::Action::Submit:
        return doSubmit(fd.get(), decoder, opt);
      case Options::Action::Attach:
        return doAttach(fd.get(), decoder, opt);
      case Options::Action::Cancel:
        return doCancel(fd.get(), decoder, opt);
      case Options::Action::Status:
        return doStatus(fd.get(), decoder, opt);
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const util::SimError &e) {
        std::cerr << "aurora_submit: " << e.what() << "\n";
        return 1;
    }
}
