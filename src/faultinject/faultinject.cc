#include "faultinject.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "util/logging.hh"

namespace aurora::faultinject
{

namespace
{

constexpr std::size_t TRACE_HEADER_BYTES = 16;
constexpr std::size_t TRACE_RECORD_BYTES = 24;
constexpr std::size_t OP_CLASS_OFFSET = 12;

/** Read one little-endian u32 at @p off, seek position preserved. */
std::uint32_t
readU32(std::FILE *f, long off)
{
    unsigned char b[4] = {};
    AURORA_ASSERT(std::fseek(f, off, SEEK_SET) == 0 &&
                      std::fread(b, 1, 4, f) == 4,
                  "fault injection: cannot read trace header");
    return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
           (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

void
writeByte(std::FILE *f, long off, unsigned char value)
{
    AURORA_ASSERT(std::fseek(f, off, SEEK_SET) == 0 &&
                      std::fwrite(&value, 1, 1, f) == 1,
                  "fault injection: cannot write trace byte");
}

} // namespace

bool
poisoned(std::uint64_t seed, std::size_t index, double fraction)
{
    const std::uint64_t h =
        mix64(seed ^ (index * 0x9e3779b97f4a7c15ull +
                      0x2545f4914f6cdd1dull));
    const double u = static_cast<double>(h >> 11) /
                     static_cast<double>(1ull << 53);
    return u < fraction;
}

const char *
configFaultName(ConfigFault fault)
{
    switch (fault) {
      case ConfigFault::ZeroRob:
        return "zero-rob";
      case ConfigFault::ZeroMshr:
        return "zero-mshr";
      case ConfigFault::MismatchedLineSize:
        return "mismatched-line-size";
      case ConfigFault::FetchWidthMismatch:
        return "fetch-width-mismatch";
      case ConfigFault::ZeroFpInstQueue:
        return "zero-fp-instq";
      case ConfigFault::BadSafeFrac:
        return "bad-safe-frac";
      case ConfigFault::OverlongFpLatency:
        return "overlong-fp-latency";
    }
    AURORA_PANIC("unknown ConfigFault ", static_cast<int>(fault));
}

ConfigFault
anyConfigFault(std::uint64_t seed)
{
    return static_cast<ConfigFault>(mix64(seed) % NUM_CONFIG_FAULTS);
}

core::MachineConfig
poisonConfig(const core::MachineConfig &base, ConfigFault fault)
{
    core::MachineConfig c = base;
    c.name += std::string("-poisoned:") + configFaultName(fault);
    switch (fault) {
      case ConfigFault::ZeroRob:
        c.rob_entries = 0;
        break;
      case ConfigFault::ZeroMshr:
        c.lsu.mshr_entries = 0;
        break;
      case ConfigFault::MismatchedLineSize:
        c.lsu.line_bytes *= 2;
        break;
      case ConfigFault::FetchWidthMismatch:
        c.ifu.fetch_width = c.issue_width + 1;
        break;
      case ConfigFault::ZeroFpInstQueue:
        c.fpu.inst_queue = 0;
        break;
      case ConfigFault::BadSafeFrac:
        c.fpu.provably_safe_frac = 1.5;
        break;
      case ConfigFault::OverlongFpLatency:
        c.fpu.div.latency = 1000;
        break;
    }
    return c;
}

core::MachineConfig
wedgeConfig(const core::MachineConfig &base)
{
    core::MachineConfig c = base;
    c.name += "-wedged";
    c.fpu.result_buses = 0;
    return c;
}

const char *
traceFaultName(TraceFault fault)
{
    switch (fault) {
      case TraceFault::Magic:
        return "magic";
      case TraceFault::Version:
        return "version";
      case TraceFault::OpClass:
        return "op-class";
      case TraceFault::Truncate:
        return "truncate";
    }
    AURORA_PANIC("unknown TraceFault ", static_cast<int>(fault));
}

TraceFault
anyTraceFault(std::uint64_t seed)
{
    return static_cast<TraceFault>(mix64(seed) % NUM_TRACE_FAULTS);
}

void
corruptTraceFile(const std::string &path, TraceFault fault,
                 std::uint64_t seed)
{
    if (fault == TraceFault::Truncate) {
        // Cut mid-record: the header's count now over-promises.
        const auto size = std::filesystem::file_size(path);
        AURORA_ASSERT(size >= TRACE_HEADER_BYTES + TRACE_RECORD_BYTES,
                      "fault injection: trace too small to truncate: ",
                      path);
        std::filesystem::resize_file(path, size - TRACE_RECORD_BYTES / 2);
        return;
    }

    std::FILE *f = std::fopen(path.c_str(), "rb+");
    AURORA_ASSERT(f != nullptr,
                  "fault injection: cannot open trace ", path);
    switch (fault) {
      case TraceFault::Magic:
        writeByte(f, 0, 'X');
        break;
      case TraceFault::Version:
        writeByte(f, 4, 0xab);
        break;
      case TraceFault::OpClass: {
        const std::uint32_t count = readU32(f, 8);
        AURORA_ASSERT(count > 0,
                      "fault injection: empty trace in ", path);
        const std::uint32_t victim =
            static_cast<std::uint32_t>(mix64(seed) % count);
        writeByte(f,
                  static_cast<long>(TRACE_HEADER_BYTES +
                                    victim * TRACE_RECORD_BYTES +
                                    OP_CLASS_OFFSET),
                  0xff);
        break;
      }
      case TraceFault::Truncate:
        break; // handled above
    }
    std::fclose(f);
}

const char *
journalFaultName(JournalFault fault)
{
    switch (fault) {
      case JournalFault::BitFlip:
        return "bit-flip";
      case JournalFault::TruncateTail:
        return "truncate-tail";
    }
    AURORA_PANIC("unknown JournalFault ", static_cast<int>(fault));
}

JournalFault
anyJournalFault(std::uint64_t seed)
{
    return static_cast<JournalFault>(mix64(seed) % NUM_JOURNAL_FAULTS);
}

void
corruptJournalFile(const std::string &path, JournalFault fault,
                   std::uint64_t seed)
{
    const auto size = std::filesystem::file_size(path);
    AURORA_ASSERT(size > 0,
                  "fault injection: empty journal in ", path);

    if (fault == JournalFault::TruncateTail) {
        const std::uintmax_t cut =
            1 + mix64(seed) % std::min<std::uintmax_t>(15, size);
        std::filesystem::resize_file(path, size - cut);
        return;
    }

    std::FILE *f = std::fopen(path.c_str(), "rb+");
    AURORA_ASSERT(f != nullptr,
                  "fault injection: cannot open journal ", path);
    const long off = static_cast<long>(mix64(seed) % size);
    unsigned char byte = 0;
    AURORA_ASSERT(std::fseek(f, off, SEEK_SET) == 0 &&
                      std::fread(&byte, 1, 1, f) == 1,
                  "fault injection: cannot read journal byte");
    byte ^= static_cast<unsigned char>(1u << (mix64(seed + 1) % 8));
    writeByte(f, off, byte);
    std::fclose(f);
}

const char *
wireFaultName(WireFault fault)
{
    switch (fault) {
      case WireFault::TruncateFrame:
        return "truncate-frame";
      case WireFault::MidFrameCut:
        return "mid-frame-cut";
      case WireFault::CrcFlip:
        return "crc-flip";
    }
    AURORA_PANIC("unknown WireFault ", static_cast<int>(fault));
}

WireFault
anyWireFault(std::uint64_t seed)
{
    return static_cast<WireFault>(mix64(seed) % NUM_WIRE_FAULTS);
}

const char *
wireFaultDiagnosticId(WireFault)
{
    // Every wire-level defect surfaces at the daemon as a protocol
    // violation: the session is refused with AUR207 and dropped.
    return "AUR207";
}

std::string
corruptWireFrame(const std::string &frame, WireFault fault,
                 std::uint64_t seed)
{
    constexpr std::size_t HEADER = 12;
    AURORA_ASSERT(frame.size() >= HEADER,
                  "fault injection: ", frame.size(),
                  " bytes is not a complete wire frame");
    std::string out = frame;
    switch (fault) {
      case WireFault::TruncateFrame:
        out.resize(1 + mix64(seed) % (HEADER - 1));
        return out;
      case WireFault::MidFrameCut:
        // Keep the header and a strict prefix of the payload, so the
        // decoder waits for bytes that never come (an empty-payload
        // frame falls back to cutting the header's last byte).
        out.resize(std::min(
            frame.size() - 1,
            HEADER + mix64(seed) % std::max<std::size_t>(
                         1, frame.size() - HEADER)));
        return out;
      case WireFault::CrcFlip: {
        // Flip a payload bit when there is a payload; an empty
        // payload gets its CRC field flipped instead. Either way the
        // stored CRC no longer matches the bytes.
        const std::size_t lo = frame.size() > HEADER ? HEADER : 8;
        const std::size_t span =
            (frame.size() > HEADER ? frame.size() : HEADER) - lo;
        const std::size_t off = lo + mix64(seed) % span;
        out[off] = static_cast<char>(
            static_cast<unsigned char>(out[off]) ^
            static_cast<unsigned char>(1u << (mix64(seed + 1) % 8)));
        return out;
      }
    }
    AURORA_PANIC("unknown WireFault ", static_cast<int>(fault));
}

const char *
shardFaultName(ShardFault fault)
{
    switch (fault) {
      case ShardFault::KillShard:
        return "kill-shard";
      case ShardFault::HangShard:
        return "hang-shard";
      case ShardFault::DropHeartbeats:
        return "drop-heartbeats";
      case ShardFault::ZombieAppend:
        return "zombie-append";
    }
    AURORA_PANIC("unknown ShardFault ", static_cast<int>(fault));
}

ShardFault
anyShardFault(std::uint64_t seed)
{
    return static_cast<ShardFault>(mix64(seed) % NUM_SHARD_FAULTS);
}

const char *
shardFaultDiagnosticId(ShardFault fault)
{
    switch (fault) {
      case ShardFault::KillShard:
        return "AUR302";
      case ShardFault::HangShard:
        return "AUR301";
      case ShardFault::DropHeartbeats:
        return "AUR303";
      case ShardFault::ZombieAppend:
        return "AUR304";
    }
    AURORA_PANIC("unknown ShardFault ", static_cast<int>(fault));
}

std::string
formatShardFaultPlan(const ShardFaultPlan &plan)
{
    return std::string(shardFaultName(plan.fault)) + ":" +
           std::to_string(plan.after_jobs);
}

std::optional<ShardFaultPlan>
parseShardFaultPlan(const std::string &text)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= text.size())
        return std::nullopt;
    const std::string name = text.substr(0, colon);
    const std::string count = text.substr(colon + 1);

    ShardFaultPlan plan;
    bool known = false;
    for (std::size_t i = 0; i < NUM_SHARD_FAULTS; ++i) {
        const auto fault = static_cast<ShardFault>(i);
        if (name == shardFaultName(fault)) {
            plan.fault = fault;
            known = true;
            break;
        }
    }
    if (!known)
        return std::nullopt;

    std::uint64_t after = 0;
    for (const char c : count) {
        if (c < '0' || c > '9')
            return std::nullopt;
        after = after * 10 + static_cast<std::uint64_t>(c - '0');
        if (after > 0xffffffffull)
            return std::nullopt;
    }
    plan.after_jobs = static_cast<std::uint32_t>(after);
    return plan;
}

void
miscountStall(core::RunResult &result, std::uint64_t seed)
{
    const auto cause = mix64(seed) % result.stalls.size();
    result.stalls[cause] += 1;
}

} // namespace aurora::faultinject
