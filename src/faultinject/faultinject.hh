/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * The fault-tolerance machinery (structured SimErrors, the
 * forward-progress watchdog, per-job sweep isolation) is only
 * trustworthy if every detector is routinely exercised. This module
 * manufactures the faults: configurations that validation must
 * reject, configurations that validate but never retire (the
 * watchdog's prey), and byte-level trace-file corruption that the
 * trace reader must refuse to replay.
 *
 * Everything is seed-driven and pure: the same (seed, index) always
 * selects the same fault, so a failing fault-storm run reproduces
 * exactly. No global state, no clock, no libc rand().
 */

#ifndef AURORA_FAULTINJECT_FAULTINJECT_HH
#define AURORA_FAULTINJECT_FAULTINJECT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/machine_config.hh"
#include "core/processor.hh"

namespace aurora::faultinject
{

/** splitmix64 finalizer — the module's only source of "randomness". */
std::uint64_t mix64(std::uint64_t x);

/**
 * Deterministic Bernoulli draw: should grid slot @p index be poisoned
 * under @p seed? True with probability @p fraction, independently per
 * index, identically across worker counts and reruns.
 */
bool poisoned(std::uint64_t seed, std::size_t index, double fraction);

/** Configuration defects MachineConfig::validate() must reject. */
enum class ConfigFault
{
    /** rob_entries = 0 — a degenerate reorder buffer. */
    ZeroRob,
    /** mshr_entries = 0 — an LSU that can never miss. */
    ZeroMshr,
    /** D-cache line size diverges from the other caches. */
    MismatchedLineSize,
    /** fetch_width no longer equals issue_width. */
    FetchWidthMismatch,
    /** fp_instq = 0 — would abort BoundedQueue construction. */
    ZeroFpInstQueue,
    /** provably_safe_frac outside [0,1]. */
    BadSafeFrac,
    /** FP divide latency beyond the result-bus scheduling window. */
    OverlongFpLatency,
};

inline constexpr std::size_t NUM_CONFIG_FAULTS = 7;

/** Short display name ("zero-rob", "bad-safe-frac", ...). */
const char *configFaultName(ConfigFault fault);

/** Seed-driven fault choice, uniform over all ConfigFaults. */
ConfigFault anyConfigFault(std::uint64_t seed);

/**
 * Return @p base with @p fault applied (name gains a
 * "-poisoned:<fault>" suffix). The result is guaranteed to make
 * validate() throw util::SimError (BadConfig); test_faultinject
 * asserts this for every fault kind.
 */
core::MachineConfig poisonConfig(const core::MachineConfig &base,
                                 ConfigFault fault);

/**
 * Return @p base altered to pass validation but never retire FP work:
 * result_buses = 0 starves every functional unit of a writeback slot,
 * the decoupling queue fills, and issue blocks forever. Run it on any
 * FP-heavy workload and only the forward-progress watchdog ends the
 * run (NoForwardProgress).
 */
core::MachineConfig wedgeConfig(const core::MachineConfig &base);

/** Byte-level trace-file defects the reader must detect. */
enum class TraceFault
{
    /** Clobber the "AUR3" magic. */
    Magic,
    /** Bump the format version to an unsupported value. */
    Version,
    /** Overwrite one record's op-class byte with 0xff. */
    OpClass,
    /** Cut the file mid-record so the body underruns the header. */
    Truncate,
};

inline constexpr std::size_t NUM_TRACE_FAULTS = 4;

/** Short display name ("magic", "truncate", ...). */
const char *traceFaultName(TraceFault fault);

/** Seed-driven fault choice, uniform over all TraceFaults. */
TraceFault anyTraceFault(std::uint64_t seed);

/**
 * Corrupt the trace file at @p path in place with @p fault; @p seed
 * picks the victim record for OpClass. The file must be a valid
 * non-empty trace written by trace::writeTrace(). Reading the
 * corrupted file must yield util::SimError (BadTrace).
 */
void corruptTraceFile(const std::string &path, TraceFault fault,
                      std::uint64_t seed = 0);

/** Byte-level sweep-journal defects loadJournal() must classify. */
enum class JournalFault
{
    /** Flip one seed-chosen bit anywhere in the file. */
    BitFlip,
    /** Cut 1–15 seed-chosen bytes off the end (a torn append). */
    TruncateTail,
};

inline constexpr std::size_t NUM_JOURNAL_FAULTS = 2;

/** Short display name ("bit-flip", "truncate-tail"). */
const char *journalFaultName(JournalFault fault);

/** Seed-driven fault choice, uniform over all JournalFaults. */
JournalFault anyJournalFault(std::uint64_t seed);

/**
 * Corrupt the sweep journal at @p path in place. Loading afterwards
 * must never crash: a TruncateTail lands in the final record and is
 * dropped as a torn tail (or, if it reaches the header, raises
 * BadJournal); a BitFlip raises BadJournal wherever the CRC or frame
 * catches it — except a flip in the *length* field of the last
 * record, which can masquerade as a torn tail and merely costs that
 * one record a re-run.
 */
void corruptJournalFile(const std::string &path, JournalFault fault,
                        std::uint64_t seed = 0);

/** Byte-level wire-frame defects the serve FrameDecoder must
 *  detect (all map to catalog ID AUR207 at the daemon). */
enum class WireFault
{
    /** Cut the frame inside its 12-byte header — the torn-frame
     *  shape of a read that raced a dying peer. */
    TruncateFrame,
    /** Keep the header but cut the payload short — a peer that
     *  disconnected mid-frame. */
    MidFrameCut,
    /** Flip one seed-chosen payload bit, leaving the CRC stale. */
    CrcFlip,
};

inline constexpr std::size_t NUM_WIRE_FAULTS = 3;

/** Short display name ("truncate-frame", "crc-flip", ...). */
const char *wireFaultName(WireFault fault);

/** Seed-driven fault choice, uniform over all WireFaults. */
WireFault anyWireFault(std::uint64_t seed);

/** Catalog diagnostic the daemon raises for @p fault ("AUR207"). */
const char *wireFaultDiagnosticId(WireFault fault);

/**
 * Return @p frame (one complete serve wire frame: 12-byte header +
 * payload) corrupted with @p fault. Pure — the wire has no file to
 * damage in place, so this is the socket-side mirror of
 * corruptJournalFile(). Feeding the result to a FrameDecoder must
 * yield NeedMore-then-starve for the two cut faults (the peer-
 * vanished signature) and Corrupt for CrcFlip; it must never yield
 * a valid payload.
 */
std::string corruptWireFrame(const std::string &frame, WireFault fault,
                             std::uint64_t seed = 0);

/** Process-level shard failure modes the swarm coordinator's
 *  lease-fenced supervision must absorb (see docs/distributed.md). */
enum class ShardFault
{
    /** _exit() mid-grid without warning — the SIGKILL shape. The
     *  coordinator sees EOF, fences the epoch, migrates. AUR302. */
    KillShard,
    /** Stop executing, heartbeating, and reading: a wedged process
     *  that holds its socket open. Only lease expiry catches it.
     *  AUR301. */
    HangShard,
    /** Keep working but silently stop heartbeating — the one-way
     *  partition shape. The shard is fenced while healthy and its
     *  late results are refused. AUR303. */
    DropHeartbeats,
    /** Go silent past the lease, then append to the local journal
     *  and offer the result under the now-stale epoch — the zombie
     *  the fence exists for. AUR304. */
    ZombieAppend,
};

inline constexpr std::size_t NUM_SHARD_FAULTS = 4;

/** Short display name ("kill-shard", "zombie-append", ...). */
const char *shardFaultName(ShardFault fault);

/** Seed-driven fault choice, uniform over all ShardFaults. */
ShardFault anyShardFault(std::uint64_t seed);

/** Catalog diagnostic the coordinator raises for @p fault
 *  ("AUR301".."AUR304"). */
const char *shardFaultDiagnosticId(ShardFault fault);

/**
 * One shard's scripted failure: arm @p fault after the shard has sent
 * @p after_jobs Results (between two members of a unit, when the
 * count falls inside one). Carried to in-process shard workers
 * directly and to exec'd `aurora_shardd` processes through the
 * AURORA_SHARD_FAULT environment variable.
 */
struct ShardFaultPlan
{
    ShardFault fault = ShardFault::KillShard;
    std::uint32_t after_jobs = 0;
};

/** Render @p plan as "<name>:<after_jobs>" (env-var form). */
std::string formatShardFaultPlan(const ShardFaultPlan &plan);

/** Parse the env-var form; nullopt on anything malformed — a shard
 *  must never misread its sabotage orders into different sabotage. */
std::optional<ShardFaultPlan>
parseShardFaultPlan(const std::string &text);

/**
 * Break one conservation invariant of @p result: bump a seed-chosen
 * stall-cause counter by one cycle, so stall + issuing + tail cycles
 * no longer equals total cycles. Models the class of accounting bug
 * the post-run auditor (core::auditRun) exists to catch; the audit
 * must reject the altered result with SimError{Internal}.
 */
void miscountStall(core::RunResult &result, std::uint64_t seed);

} // namespace aurora::faultinject

#endif // AURORA_FAULTINJECT_FAULTINJECT_HH
