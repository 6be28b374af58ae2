#include "frame.hh"

#include <chrono>

#include "logging.hh"
#include "record_io.hh"
#include "sim_error.hh"
#include "socket.hh"

namespace aurora::util
{

namespace
{

std::uint32_t
readU32(const std::string &buf, std::size_t pos)
{
    return static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf[pos])) |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf[pos + 1]))
               << 8 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf[pos + 2]))
               << 16 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf[pos + 3]))
               << 24;
}

} // namespace

std::string
frame(std::uint32_t magic, const std::string &payload)
{
    AURORA_ASSERT(payload.size() <= MAX_RECORD_BYTES,
                  "wire payload of ", payload.size(),
                  " bytes exceeds the frame cap");
    ByteWriter w;
    w.u32(magic);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(crc32(payload));
    std::string out = w.bytes();
    out += payload;
    return out;
}

void
FrameDecoder::feed(const char *data, std::size_t len)
{
    buf_.append(data, len);
}

void
FrameDecoder::feed(const std::string &bytes)
{
    buf_ += bytes;
}

FrameStatus
FrameDecoder::next(std::string &payload)
{
    // Reclaim consumed prefix once it dominates the buffer, so a
    // long-lived session doesn't grow its buffer without bound.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    if (buf_.size() - pos_ < FRAME_HEADER_BYTES)
        return FrameStatus::NeedMore;
    if (readU32(buf_, pos_) != magic_)
        return FrameStatus::Corrupt;
    const std::uint32_t len = readU32(buf_, pos_ + 4);
    if (len > MAX_RECORD_BYTES)
        return FrameStatus::Corrupt;
    if (buf_.size() - pos_ < FRAME_HEADER_BYTES + len)
        return FrameStatus::NeedMore;
    const std::uint32_t crc = readU32(buf_, pos_ + 8);
    payload.assign(buf_, pos_ + FRAME_HEADER_BYTES, len);
    if (crc32(payload) != crc) {
        payload.clear();
        return FrameStatus::Corrupt;
    }
    pos_ += FRAME_HEADER_BYTES + len;
    return FrameStatus::Ok;
}

FramedConn::FramedConn(Fd fd, std::uint32_t magic)
    : fd_(std::move(fd)), decoder_(magic)
{
    setNonBlocking(fd_.get());
}

void
FramedConn::close()
{
    fd_.reset();
    decoder_ = FrameDecoder(decoder_.magic());
    out_.clear();
    out_pos_ = 0;
}

void
FramedConn::send(const std::string &payload)
{
    // Reclaim the flushed prefix once it dominates the buffer, so a
    // slow reader of a long stream doesn't pin every frame ever sent
    // to it.
    if (out_pos_ > 4096 && out_pos_ * 2 > out_.size()) {
        out_.erase(0, out_pos_);
        out_pos_ = 0;
    }
    out_ += frame(decoder_.magic(), payload);
}

bool
FramedConn::flush()
{
    return !wantsWrite() || writeSome(fd_.get(), out_, out_pos_);
}

bool
FramedConn::fill()
{
    std::string bytes;
    const long n = readAvailable(fd_.get(), bytes);
    decoder_.feed(bytes);
    return n != 0;
}

void
sendFrame(int fd, std::uint32_t magic, const std::string &payload)
{
    writeAll(fd, frame(magic, payload));
}

std::optional<std::string>
recvFrame(int fd, FrameDecoder &decoder, std::uint64_t timeout_ms)
{
    // The timeout bounds the whole frame, not each read: a peer
    // trickling one byte per poll must not keep a timed client
    // blocked past its budget.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::string payload;
    for (;;) {
        switch (decoder.next(payload)) {
          case FrameStatus::Ok:
            return payload;
          case FrameStatus::Corrupt:
            raiseError(SimErrorCode::BadWire,
                       "corrupt wire frame (bad magic, length, "
                       "or CRC)");
          case FrameStatus::NeedMore:
            break;
        }
        std::uint64_t wait_ms = 0;
        if (timeout_ms != 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            if (left <= 0)
                raiseError(SimErrorCode::BadWire, "timed out after ",
                           timeout_ms,
                           " ms waiting for a complete frame");
            wait_ms = static_cast<std::uint64_t>(left);
        }
        std::string chunk;
        const std::size_t n = readBlocking(fd, chunk, 64 * 1024, wait_ms);
        if (n == 0) {
            if (decoder.atFrameBoundary())
                return std::nullopt;
            raiseError(SimErrorCode::BadWire, "peer closed mid-frame");
        }
        decoder.feed(chunk);
    }
}

} // namespace aurora::util
