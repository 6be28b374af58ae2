/**
 * @file
 * Shard fabric wire protocol: coordinator <-> shard worker messages.
 *
 * Frames are util/frame's CRC framing under the 'ASW1' magic —
 * distinct from serve's 'AWP1' and the journal's 'AJRN', so a client
 * that dials the wrong socket is refused at its first frame. Payload
 * byte 0 is the MsgType; the rest is the message's fields in the
 * order its `fields` list names them (util/codec.hh). That list is
 * the normative layout — encoder and decoder at once — so seeds and
 * doubles cross the wire bit-exactly.
 *
 * Conversation shape (coordinator supervises, shard pulls):
 *
 *   shard                          coordinator
 *   Hello{version, pid}       -->
 *                             <--  Welcome{slot, epoch, lease_ms,
 *                                          beat_ms}
 *                             <--  Assign{epoch, jobs}*   (chunked)
 *   Beat{slot, epoch, done}   -->  (renews the lease)
 *   Result{slot, epoch,
 *          ticket, record}    -->  (one per completed job)
 *                             <--  Fenced{epoch}  (lease lost: exit)
 *                             <--  Shutdown{}     (grid done: exit)
 *
 * The epoch is the fencing token (docs/distributed.md): the
 * coordinator stamps each lease grant with a fresh epoch, and every
 * shard->coordinator message carries the epoch the shard believes it
 * holds. A Result under any epoch other than the slot's current one
 * is refused — that is the entire zombie-append defence, so the
 * check lives in one place (Swarm::handleResult) and this header
 * keeps the token in every message shape.
 *
 * A Result's `record` field is exactly harness::encodeJournalRecord()
 * of the job's journal record, and the shard appends those same bytes
 * to its local journal *before* sending — what the coordinator
 * commits is bit-identical to what the shard persisted, which is what
 * makes the final merge's byte-equality cross-check possible.
 */

#ifndef AURORA_SHARD_SHARD_WIRE_HH
#define AURORA_SHARD_SHARD_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/codec.hh"
#include "util/frame.hh"

namespace aurora::shard::wire
{

/** Frame magic ('ASW1', little-endian). */
inline constexpr std::uint32_t SHARD_MAGIC = 0x31575341u;

/**
 * Protocol version carried in Hello/Welcome. The coordinator speaks
 * this one version; a Hello carrying any other is refused with
 * AUR305. Assign ends in an optional trailing trace id, written only
 * when nonzero.
 */
inline constexpr std::uint32_t SHARD_PROTOCOL_VERSION = 2;

/** Payload byte 0. Shard→coordinator types are low, replies high. */
enum class MsgType : std::uint8_t
{
    Hello = 1,
    Beat = 2,
    Result = 3,

    Welcome = 64,
    Assign = 65,
    Fenced = 66,
    Shutdown = 67,
};

/** The fabric's codec format: BadWire on any decode failure, and
 *  the one name table of its message types. */
inline constexpr util::codec::Format<MsgType, 7> SHARD_WIRE_FORMAT{
    util::SimErrorCode::BadWire,
    "shard message",
    {{{MsgType::Hello, "Hello"},
      {MsgType::Beat, "Beat"},
      {MsgType::Result, "Result"},
      {MsgType::Welcome, "Welcome"},
      {MsgType::Assign, "Assign"},
      {MsgType::Fenced, "Fenced"},
      {MsgType::Shutdown, "Shutdown"}}}};

constexpr const auto &
formatOf(MsgType)
{
    return SHARD_WIRE_FORMAT;
}

/** Display name ("Hello", "Fenced", ...) for logs and tests. */
inline const char *
msgTypeName(MsgType type)
{
    return SHARD_WIRE_FORMAT.name(type);
}

/** First byte of @p payload as a MsgType; BadWire when empty or not
 *  a known type. */
inline MsgType
peekType(const std::string &payload)
{
    return SHARD_WIRE_FORMAT.peek(payload);
}

/** util::FrameDecoder fixed to the shard fabric's magic. */
class FrameDecoder : public util::FrameDecoder
{
  public:
    FrameDecoder() : util::FrameDecoder(SHARD_MAGIC) {}
};

/** Wrap @p payload in a shard wire frame. */
std::string frame(const std::string &payload);

/** Blocking send of one framed payload. */
void sendFrame(int fd, const std::string &payload);

/// @name Messages (shard → coordinator)
/// @{

struct HelloMsg
{
    static constexpr MsgType TAG = MsgType::Hello;

    std::uint32_t version = SHARD_PROTOCOL_VERSION;
    /** Shard's pid, for the coordinator's logs and kill drills. */
    std::uint64_t pid = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.version, m.pid);
    }
};

/** Lease renewal. Sent between jobs and while idle; a shard deep in
 *  one long simulation cannot beat, so the lease must exceed the
 *  worst-case job time (docs/distributed.md). */
struct BeatMsg
{
    static constexpr MsgType TAG = MsgType::Beat;

    std::uint32_t slot = 0;
    std::uint64_t epoch = 0;
    /** Jobs this incarnation has completed (monotone; logs only). */
    std::uint64_t done = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.slot, m.epoch, m.done);
    }
};

struct ResultMsg
{
    static constexpr MsgType TAG = MsgType::Result;

    std::uint32_t slot = 0;
    /** Epoch the shard holds — the fencing token. */
    std::uint64_t epoch = 0;
    /** Coordinator-issued job ticket this result answers. */
    std::uint64_t ticket = 0;
    /** harness::encodeJournalRecord() bytes, already durable in the
     *  shard's local journal. */
    std::string record;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.slot, m.epoch, m.ticket, m.record);
    }
};

/// @}
/// @name Messages (coordinator → shard)
/// @{

struct WelcomeMsg
{
    static constexpr MsgType TAG = MsgType::Welcome;

    std::uint32_t version = SHARD_PROTOCOL_VERSION;
    /** Stable slot index [0, shards) this connection now serves. */
    std::uint32_t slot = 0;
    /** Freshly-granted lease epoch; stamp every message with it. */
    std::uint64_t epoch = 0;
    /** Miss a beat for this long and the lease is fenced. */
    std::uint64_t lease_ms = 0;
    /** Target cadence for Beat messages (lease_ms / 4 or better). */
    std::uint64_t beat_ms = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.version, m.slot, m.epoch, m.lease_ms, m.beat_ms);
    }
};

/** One grid point, in the portable form the shard re-hydrates with
 *  core::parseMachineSpec() + trace::profileByName() (the profile's
 *  seed is then overwritten with profile_seed, so a caller-tweaked
 *  seed survives the wire; mix fractions are canonical-by-name,
 *  exactly as aurora_serve assumes). */
struct JobSpec
{
    /** Coordinator-issued commit ticket (unique per assignment). */
    std::uint64_t ticket = 0;
    /** Submission-order index in the original grid. */
    std::uint64_t job_index = 0;
    std::string machine_spec;
    std::string profile_name;
    std::uint64_t profile_seed = 0;
    std::uint64_t instructions = 0;
    /** SweepOptions mirror (per job so mixed grids can share a
     *  fabric in service mode). */
    bool has_base_seed = false;
    std::uint64_t base_seed = 0;
    std::uint64_t deadline_ms = 0;
    std::uint32_t retries = 0;
    std::uint64_t backoff_ms = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &job)
    {
        io(job.ticket, job.job_index, job.machine_spec, job.profile_name,
           job.profile_seed, job.instructions, job.has_base_seed,
           job.base_seed, job.deadline_ms, job.retries, job.backoff_ms);
    }
};

struct AssignMsg
{
    static constexpr MsgType TAG = MsgType::Assign;

    /** Epoch these assignments are valid under. */
    std::uint64_t epoch = 0;
    std::vector<JobSpec> jobs;
    /**
     * The grid's causal trace id (0 = untraced). The shard
     * derives its attempt-span identities from it (obs/ids.hh), so
     * the coordinator's merged trace parents them without any id
     * exchange. Optional trailing field.
     */
    std::uint64_t trace_id = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.epoch, m.jobs);
        io.trailing(m.trace_id);
    }
};

/** The slot's lease was revoked; the named epoch is dead and every
 *  result sent under it will be refused. The shard must exit. */
struct FencedMsg
{
    static constexpr MsgType TAG = MsgType::Fenced;

    std::uint64_t epoch = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.epoch);
    }
};

/** Clean end-of-grid: drain and exit 0. */
struct ShutdownMsg
{
    static constexpr MsgType TAG = MsgType::Shutdown;

    template <typename Io, typename Self>
    static void
    fields(Io &, Self &)
    {
    }
};

/// @}

/// encode(m) is the payload of any message above (type byte
/// included); decode<M>(payload) inverts it and throws
/// SimError(BadWire) on a wrong type byte, an underrun, an
/// out-of-range field, or trailing bytes (format mismatch).
using util::codec::decode;
using util::codec::encode;

/// Named decoders, one per message.
/// @{
inline constexpr auto decodeHello = &decode<HelloMsg>;
inline constexpr auto decodeBeat = &decode<BeatMsg>;
inline constexpr auto decodeResult = &decode<ResultMsg>;
inline constexpr auto decodeWelcome = &decode<WelcomeMsg>;
inline constexpr auto decodeAssign = &decode<AssignMsg>;
inline constexpr auto decodeFenced = &decode<FencedMsg>;
inline constexpr auto decodeShutdown = &decode<ShutdownMsg>;
/// @}

} // namespace aurora::shard::wire

#endif // AURORA_SHARD_SHARD_WIRE_HH
