/**
 * @file
 * aurora_serve wire protocol: CRC-framed messages over a local socket.
 *
 * Transport frames are util/frame's CRC framing under the 'AWP1'
 * magic:
 *
 *     [u32 magic 'AWP1'] [u32 payload_len] [u32 crc32(payload)] [payload]
 *
 * all little-endian. The CRC means a torn or bit-flipped frame is
 * *detected*, never misparsed — the same guarantee the sweep journal
 * gives on disk, extended to the socket. Payload byte 0 is the
 * MsgType; the rest is the message's fields in the order its
 * `fields` list names them (util/codec.hh). That list is the
 * normative layout: it is both the encoder and the decoder, and
 * doubles cross the wire bit-exactly.
 *
 * Conversation shape (client drives, server streams):
 *
 *   client                          server
 *   Hello{version, tenant}    -->
 *                             <--   Welcome{version, draining}
 *   Submit{label, opts, jobs} -->
 *                             <--   Accepted{fp, jobs, done} |
 *                                   Rejected{AURxxx, code, msg}
 *                             <--   Result{fp, record}*   (streamed)
 *                             <--   Progress{fp, counts}* (cadenced)
 *                             <--   GridDone{fp, tallies}
 *   Attach{fp}                -->   (replays done Results, then live)
 *   Cancel{fp}                -->
 *                             <--   CancelOk{fp, cancelled}
 *   Status{}                  -->
 *                             <--   StatusReport{...}
 *
 * A Result's `record` field is exactly harness::encodeJournalRecord()
 * of the job's journal record: what the client receives over the wire
 * is bit-identical to what the daemon persisted, so re-attached and
 * live clients cannot disagree.
 */

#ifndef AURORA_SERVE_WIRE_HH
#define AURORA_SERVE_WIRE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/codec.hh"
#include "util/frame.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"

namespace aurora::serve::wire
{

/** Frame magic ('AWP1', little-endian) — distinct from the journal's
 *  'AJRN' so a journal file pushed down a socket is rejected. */
inline constexpr std::uint32_t WIRE_MAGIC = 0x31505741u;

/**
 * Protocol version carried in Hello/Welcome. The server speaks this
 * one version; a Hello carrying any other is refused with AUR207.
 * Submit/Accepted end in an optional trailing trace id, written only
 * when nonzero and read only when bytes remain.
 */
inline constexpr std::uint32_t PROTOCOL_VERSION = 2;

/** Payload byte 0. Client→server types are low, server→client high. */
enum class MsgType : std::uint8_t
{
    Hello = 1,
    Submit = 2,
    Attach = 3,
    Cancel = 4,
    Status = 5,
    Metrics = 6,

    Welcome = 64,
    Accepted = 65,
    Rejected = 66,
    Progress = 67,
    Result = 68,
    GridDone = 69,
    StatusReport = 70,
    CancelOk = 71,
    Draining = 72,
    MetricsReport = 73,
};

/** The protocol's codec format: BadWire on any decode failure, and
 *  the one name table of its message types. */
inline constexpr util::codec::Format<MsgType, 16> WIRE_FORMAT{
    util::SimErrorCode::BadWire,
    "wire message",
    {{{MsgType::Hello, "Hello"},
      {MsgType::Submit, "Submit"},
      {MsgType::Attach, "Attach"},
      {MsgType::Cancel, "Cancel"},
      {MsgType::Status, "Status"},
      {MsgType::Metrics, "Metrics"},
      {MsgType::Welcome, "Welcome"},
      {MsgType::Accepted, "Accepted"},
      {MsgType::Rejected, "Rejected"},
      {MsgType::Progress, "Progress"},
      {MsgType::Result, "Result"},
      {MsgType::GridDone, "GridDone"},
      {MsgType::StatusReport, "StatusReport"},
      {MsgType::CancelOk, "CancelOk"},
      {MsgType::Draining, "Draining"},
      {MsgType::MetricsReport, "MetricsReport"}}}};

constexpr const auto &
formatOf(MsgType)
{
    return WIRE_FORMAT;
}

/** Display name ("Hello", "GridDone", ...) for logs and tests. */
inline const char *
msgTypeName(MsgType type)
{
    return WIRE_FORMAT.name(type);
}

/** First byte of @p payload as a MsgType; BadWire when empty or not
 *  a known type. */
inline MsgType
peekType(const std::string &payload)
{
    return WIRE_FORMAT.peek(payload);
}

/** Wrap @p payload in a wire frame (magic + length + CRC). */
std::string frame(const std::string &payload);

/** Shared frame-extraction status (see util/frame.hh). Corrupt is
 *  terminal for the connection — the peer is dropped (AUR207). */
using util::FrameStatus;

/** util::FrameDecoder fixed to the serve protocol's magic. */
class FrameDecoder : public util::FrameDecoder
{
  public:
    FrameDecoder() : util::FrameDecoder(WIRE_MAGIC) {}
};

/** Blocking send of one framed payload (client side). */
void sendFrame(int fd, const std::string &payload);

/** Blocking receive of the next framed payload through a
 *  FrameDecoder (client side; see util::recvFrame). */
using util::recvFrame;

/// @name Messages (client → server)
/// @{

struct HelloMsg
{
    static constexpr MsgType TAG = MsgType::Hello;

    std::uint32_t version = PROTOCOL_VERSION;
    /** Tenant identity for quotas and fair scheduling; non-empty. */
    std::string tenant;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.version, m.tenant);
    }
};

/** One grid point of a submission, in portable textual form. */
struct SubmitJob
{
    /** core::parseMachineSpec() input (round-trips describe()). */
    std::string machine_spec;
    /** trace::profileByName() benchmark name. */
    std::string profile;
    /** Instruction budget. */
    std::uint64_t instructions = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &job)
    {
        io(job.machine_spec, job.profile, job.instructions);
    }
};

struct SubmitMsg
{
    static constexpr MsgType TAG = MsgType::Submit;

    /** Human label for status listings (not part of the identity). */
    std::string label;
    /** Cancel the grid if this connection drops before it finishes
     *  (false = orphan-detach: the grid keeps running). */
    bool cancel_on_disconnect = false;
    /** SweepOptions::base_seed (has_base_seed gates base_seed). */
    bool has_base_seed = false;
    std::uint64_t base_seed = 0;
    /** SweepOptions::deadline_ms (0 = unlimited). */
    std::uint64_t deadline_ms = 0;
    /** SweepOptions::retries. */
    std::uint32_t retries = 0;
    /** SweepOptions::backoff_ms. */
    std::uint64_t backoff_ms = 0;
    std::vector<SubmitJob> jobs;
    /**
     * Caller-supplied causal trace id (0 = let the server mint
     * one from the grid fingerprint). Optional trailing field —
     * encoded only when nonzero.
     */
    std::uint64_t trace_id = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.label, m.cancel_on_disconnect, m.has_base_seed, m.base_seed,
           m.deadline_ms, m.retries, m.backoff_ms, m.jobs);
        io.trailing(m.trace_id);
    }
};

struct AttachMsg
{
    static constexpr MsgType TAG = MsgType::Attach;

    std::uint64_t fingerprint = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.fingerprint);
    }
};

struct CancelMsg
{
    static constexpr MsgType TAG = MsgType::Cancel;

    std::uint64_t fingerprint = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.fingerprint);
    }
};

struct StatusMsg
{
    static constexpr MsgType TAG = MsgType::Status;

    template <typename Io, typename Self>
    static void
    fields(Io &, Self &)
    {
    }
};

/** Exposition format of a Metrics request / report. */
enum class MetricsFormat : std::uint8_t
{
    Prometheus = 0,
    Json = 1,
};

constexpr MetricsFormat
enumLimit(MetricsFormat)
{
    return MetricsFormat::Json;
}

/** Ask for a metrics exposition (aurora_top's poll). */
struct MetricsMsg
{
    static constexpr MsgType TAG = MsgType::Metrics;

    MetricsFormat format = MetricsFormat::Prometheus;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.format);
    }
};

/// @}
/// @name Messages (server → client)
/// @{

struct WelcomeMsg
{
    static constexpr MsgType TAG = MsgType::Welcome;

    std::uint32_t version = PROTOCOL_VERSION;
    bool draining = false;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.version, m.draining);
    }
};

struct AcceptedMsg
{
    static constexpr MsgType TAG = MsgType::Accepted;

    /** gridFingerprint() of the accepted grid — the durable handle a
     *  client re-attaches by after either side restarts. */
    std::uint64_t fingerprint = 0;
    std::uint64_t jobs = 0;
    /** Jobs already complete (0 on a fresh submission; > 0 when an
     *  Attach lands on a grid in flight). */
    std::uint64_t done = 0;
    /** True when this Accepted answers an Attach, not a Submit. */
    bool attached = false;
    /**
     * The grid's causal trace id. Optional trailing field (0 = not
     * conveyed).
     */
    std::uint64_t trace_id = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.fingerprint, m.jobs, m.done, m.attached);
        io.trailing(m.trace_id);
    }
};

struct RejectedMsg
{
    static constexpr MsgType TAG = MsgType::Rejected;

    /** Stable catalog ID (AUR2xx admission/protocol, or the AUR0xx
     *  preflight lint that failed). */
    std::string id;
    util::SimErrorCode code = util::SimErrorCode::Internal;
    std::string message;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.id, m.code, m.message);
    }
};

/** Cadenced heartbeat for one grid (mirrors harness::SweepProgress,
 *  plus the service's cancelled count). */
struct ProgressMsg
{
    static constexpr MsgType TAG = MsgType::Progress;

    std::uint64_t fingerprint = 0;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t cancelled = 0;
    double elapsed_seconds = 0.0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.fingerprint, m.done, m.total, m.ok, m.failed, m.timed_out,
           m.cancelled, m.elapsed_seconds);
    }
};

struct ResultMsg
{
    static constexpr MsgType TAG = MsgType::Result;

    std::uint64_t fingerprint = 0;
    /** harness::encodeJournalRecord() bytes of the completed job —
     *  decode with harness::decodeJournalRecord(). */
    std::string record;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.fingerprint, m.record);
    }
};

struct GridDoneMsg
{
    static constexpr MsgType TAG = MsgType::GridDone;

    std::uint64_t fingerprint = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t cancelled = 0;
    /** Jobs replayed from the journal after a daemon restart. */
    std::uint64_t resumed = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.fingerprint, m.ok, m.failed, m.timed_out, m.cancelled,
           m.resumed);
    }
};

struct StatusReportMsg
{
    static constexpr MsgType TAG = MsgType::StatusReport;

    bool draining = false;
    std::uint64_t grids = 0;
    std::uint64_t done_grids = 0;
    std::uint64_t queued_jobs = 0;
    std::uint64_t running_jobs = 0;
    std::uint64_t done_jobs = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.draining, m.grids, m.done_grids, m.queued_jobs,
           m.running_jobs, m.done_jobs);
    }
};

struct CancelOkMsg
{
    static constexpr MsgType TAG = MsgType::CancelOk;

    std::uint64_t fingerprint = 0;
    /** Queued jobs finalized as Cancelled by this request. */
    std::uint64_t cancelled_jobs = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.fingerprint, m.cancelled_jobs);
    }
};

/** Sent to every connected client when drain begins. */
struct DrainingMsg
{
    static constexpr MsgType TAG = MsgType::Draining;

    std::string reason;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.reason);
    }
};

/** One metrics exposition (obs::renderPrometheus / renderMetricsJson). */
struct MetricsReportMsg
{
    static constexpr MsgType TAG = MsgType::MetricsReport;

    MetricsFormat format = MetricsFormat::Prometheus;
    std::string body;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &m)
    {
        io(m.format, m.body);
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
inline constexpr auto decodeSubmit = &decode<SubmitMsg>;
inline constexpr auto decodeAttach = &decode<AttachMsg>;
inline constexpr auto decodeCancel = &decode<CancelMsg>;
inline constexpr auto decodeStatus = &decode<StatusMsg>;
inline constexpr auto decodeMetrics = &decode<MetricsMsg>;
inline constexpr auto decodeWelcome = &decode<WelcomeMsg>;
inline constexpr auto decodeAccepted = &decode<AcceptedMsg>;
inline constexpr auto decodeRejected = &decode<RejectedMsg>;
inline constexpr auto decodeProgress = &decode<ProgressMsg>;
inline constexpr auto decodeResult = &decode<ResultMsg>;
inline constexpr auto decodeGridDone = &decode<GridDoneMsg>;
inline constexpr auto decodeStatusReport = &decode<StatusReportMsg>;
inline constexpr auto decodeCancelOk = &decode<CancelOkMsg>;
inline constexpr auto decodeDraining = &decode<DrainingMsg>;
inline constexpr auto decodeMetricsReport = &decode<MetricsReportMsg>;
/// @}

} // namespace aurora::serve::wire

#endif // AURORA_SERVE_WIRE_HH
