/**
 * @file
 * CRC-framed message transport shared by every Aurora socket protocol.
 *
 * A frame is the journal's record framing byte-for-byte
 * (util/record_io layout) under a protocol-specific magic:
 *
 *     [u32 magic] [u32 payload_len] [u32 crc32(payload)] [payload]
 *
 * all little-endian. The CRC means a torn or bit-flipped frame is
 * *detected*, never misparsed — the same guarantee the sweep journal
 * gives on disk, extended to the socket. Each protocol picks a
 * distinct magic (serve speaks 'AWP1', the shard fabric 'ASW1') so a
 * stream from the wrong peer — or a journal file pushed down a
 * socket — is rejected at the first frame instead of half-parsed.
 * record_io frames and parses its records with the same frame() and
 * FrameDecoder under the journal's magic.
 *
 * FramedConn is the one non-blocking peer of every poll loop (serve
 * sessions, the swarm's shards and dialers, a shard's coordinator
 * link): a socket, a decoder, and a buffer of unsent frames.
 */

#ifndef AURORA_UTIL_FRAME_HH
#define AURORA_UTIL_FRAME_HH

#include <cstdint>
#include <optional>
#include <string>

#include "socket.hh"

namespace aurora::util
{

/** Bytes of the fixed frame header (magic + length + CRC). */
inline constexpr std::size_t FRAME_HEADER_BYTES = 12;

/** Wrap @p payload in a frame under @p magic. */
std::string frame(std::uint32_t magic, const std::string &payload);

/** What FrameDecoder::next() found. */
enum class FrameStatus
{
    NeedMore, ///< buffer holds only a partial frame; feed more bytes
    Ok,       ///< a complete, CRC-valid payload was extracted
    Corrupt,  ///< bad magic, implausible length, or CRC mismatch
};

/**
 * Incremental frame extractor for a non-blocking socket: feed() the
 * bytes read() hands you, then drain complete payloads with next().
 * Corrupt is terminal for the connection — after a framing error the
 * stream offset is untrustworthy, so the caller must drop the peer,
 * exactly as a mid-file corrupt journal refuses to resume.
 */
class FrameDecoder
{
  public:
    /** Decode frames carrying @p magic; anything else is Corrupt. */
    explicit FrameDecoder(std::uint32_t magic) : magic_(magic) {}

    /** Append raw socket bytes to the decode buffer. */
    void feed(const char *data, std::size_t len);
    void feed(const std::string &bytes);

    /** Extract the next complete payload, if any. */
    FrameStatus next(std::string &payload);

    /** True when no partial frame is pending — a peer that closes
     *  here closed cleanly, not mid-message. */
    bool atFrameBoundary() const { return pos_ == buf_.size(); }

    std::uint32_t magic() const { return magic_; }

    /** Bytes buffered but not yet consumed (tests, caps). */
    std::size_t pendingBytes() const { return buf_.size() - pos_; }

  private:
    std::uint32_t magic_;
    std::string buf_;
    std::size_t pos_ = 0;
};

/** What FramedConn::receive() left the connection as. */
enum class ConnStatus
{
    Open,    ///< still connected; later frames may follow
    Closed,  ///< the peer hung up (or reset) and no whole frame is left
    Corrupt, ///< a framing error: the peer must be dropped
};

/**
 * One non-blocking framed connection: an owned socket, the decoder of
 * its inbound frames, and a buffer of outbound frames. Moving it
 * moves all three, so frames the peer pipelined behind the one being
 * handled survive a hand-over to a new owner; the moved-from
 * connection is closed.
 */
class FramedConn
{
  public:
    /** A closed connection speaking @p magic. */
    explicit FramedConn(std::uint32_t magic) : decoder_(magic) {}
    /** Own @p fd (switched to non-blocking) speaking @p magic. */
    FramedConn(Fd fd, std::uint32_t magic);

    int fd() const { return fd_.get(); }
    bool open() const { return fd_.valid(); }

    /** Close the socket and drop both buffers. */
    void close();

    /** The inbound decoder (a blocking recvFrame() may share it). */
    FrameDecoder &decoder() { return decoder_; }

    /** Queue one payload; flush() delivers it. */
    void send(const std::string &payload);

    /**
     * Write what the socket accepts without blocking. Returns false
     * when the peer is gone; true otherwise. wantsWrite() tells the
     * poll loop whether POLLOUT should stay armed.
     */
    bool flush();

    bool wantsWrite() const { return out_pos_ < out_.size(); }

    /**
     * Read what the socket holds and hand each whole payload to
     * @p handler (`bool(const std::string &)`), in order, until the
     * decoder needs more bytes or the handler returns false — which
     * it must do once it has closed, moved or dropped this
     * connection. A stopped delivery reports Open; frames left
     * behind stay in the decoder.
     */
    template <class Handler>
    ConnStatus
    receive(Handler &&handler)
    {
        const bool eof = !fill();
        std::string payload;
        for (;;) {
            switch (decoder_.next(payload)) {
              case FrameStatus::Ok:
                if (!handler(payload))
                    return ConnStatus::Open;
                continue;
              case FrameStatus::Corrupt:
                return ConnStatus::Corrupt;
              case FrameStatus::NeedMore:
                return eof ? ConnStatus::Closed : ConnStatus::Open;
            }
        }
    }

  private:
    /** One non-blocking read into the decoder; false = peer closed. */
    bool fill();

    Fd fd_;
    FrameDecoder decoder_;
    std::string out_;
    std::size_t out_pos_ = 0;
};

/** Blocking send of one framed payload. */
void sendFrame(int fd, std::uint32_t magic, const std::string &payload);

/**
 * Blocking receive of the next framed payload, reading through
 * @p decoder. Returns std::nullopt on a clean peer close at a frame
 * boundary; throws SimError(BadWire) on corruption, on a close
 * mid-frame, or after @p timeout_ms with no complete frame
 * (0 = wait forever).
 */
std::optional<std::string> recvFrame(int fd, FrameDecoder &decoder,
                                     std::uint64_t timeout_ms = 0);

} // namespace aurora::util

#endif // AURORA_UTIL_FRAME_HH
