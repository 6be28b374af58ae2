#include "record_io.hh"

#include <array>
#include <cstring>
#include <utility>

#include "logging.hh"

namespace aurora::util
{

namespace
{

/** Per-record frame marker ('AJRN' little-endian). */
constexpr std::uint32_t RECORD_MAGIC = 0x4e524a41u;

constexpr std::array<std::uint32_t, 256>
crcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len)
{
    static const std::array<std::uint32_t, 256> table = crcTable();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::uint32_t
crc32(const std::string &bytes)
{
    return crc32(bytes.data(), bytes.size());
}

void
ByteWriter::u32(std::uint32_t v)
{
    for (int k = 0; k < 4; ++k)
        bytes_.push_back(static_cast<char>((v >> (8 * k)) & 0xff));
}

void
ByteWriter::u64(std::uint64_t v)
{
    u32(static_cast<std::uint32_t>(v & 0xffffffffu));
    u32(static_cast<std::uint32_t>(v >> 32));
}

void
ByteWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s);
}

void
ByteReader::need(std::size_t n) const
{
    if (bytes_.size() - pos_ < n)
        raiseError(error_, "record underrun: need ", n,
                   " bytes at offset ", pos_, " of ", bytes_.size(),
                   " (format/version mismatch?)");
}

std::uint8_t
ByteReader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t
ByteReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes_[pos_ + k]))
             << (8 * k);
    pos_ += 4;
    return v;
}

std::uint64_t
ByteReader::u64()
{
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
}

double
ByteReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::str()
{
    const std::uint32_t n = u32();
    need(n);
    std::string s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
}

const char *
recordStatusName(RecordStatus status)
{
    switch (status) {
      case RecordStatus::Ok: return "Ok";
      case RecordStatus::EndOfFile: return "EndOfFile";
      case RecordStatus::TruncatedTail: return "TruncatedTail";
      case RecordStatus::Corrupt: return "Corrupt";
    }
    return "Unknown";
}

RecordFileWriter::RecordFileWriter(const std::string &path,
                                   bool truncate)
    : path_(path),
      out_(path, truncate ? std::ios::binary | std::ios::trunc
                          : std::ios::binary | std::ios::app)
{
    if (!out_)
        raiseError(SimErrorCode::BadJournal, "cannot open '", path,
                   "' for writing");
}

void
RecordFileWriter::append(const std::string &payload)
{
    if (payload.size() > MAX_RECORD_BYTES)
        raiseError(SimErrorCode::BadJournal, "record of ",
                   payload.size(), " bytes exceeds the ",
                   MAX_RECORD_BYTES, "-byte frame limit");
    const std::string framed = frame(RECORD_MAGIC, payload);
    // One write + flush per record: a kill between appends loses
    // nothing, a kill mid-append tears at most this record's tail.
    out_.write(framed.data(),
               static_cast<std::streamsize>(framed.size()));
    out_.flush();
    if (!out_)
        raiseError(SimErrorCode::BadJournal, "write to '", path_,
                   "' failed");
}

RecordFileReader::RecordFileReader(const std::string &path)
    : path_(path), in_(path, std::ios::binary), decoder_(RECORD_MAGIC)
{
    if (!in_)
        raiseError(SimErrorCode::BadJournal, "cannot open '", path,
                   "' for reading");
}

RecordStatus
RecordFileReader::next(std::string &payload)
{
    for (;;) {
        switch (decoder_.next(payload)) {
          case FrameStatus::Ok:
            good_bytes_ += FRAME_HEADER_BYTES + payload.size();
            return RecordStatus::Ok;
          case FrameStatus::Corrupt:
            return RecordStatus::Corrupt;
          case FrameStatus::NeedMore:
            break;
        }
        // A frame the file cannot complete is a torn tail.
        char chunk[64 * 1024];
        in_.read(chunk, sizeof(chunk));
        const std::streamsize got = in_.gcount();
        if (got == 0)
            return decoder_.atFrameBoundary()
                       ? RecordStatus::EndOfFile
                       : RecordStatus::TruncatedTail;
        decoder_.feed(chunk, static_cast<std::size_t>(got));
    }
}

RecordFile
readRecordFile(const std::string &path, const char *what)
{
    RecordFileReader reader(path);
    RecordFile file;
    std::string payload;
    for (;;) {
        const RecordStatus status = reader.next(payload);
        if (status == RecordStatus::Ok) {
            file.payloads.push_back(std::move(payload));
            continue;
        }
        if (status == RecordStatus::Corrupt)
            raiseError(SimErrorCode::BadJournal, what, " '", path,
                       "' is corrupt mid-file (bad frame or CRC "
                       "mismatch)");
        if (status == RecordStatus::TruncatedTail) {
            // The signature of a writer killed mid-append.
            warn(detail::concat(what, " '", path,
                                "': dropping torn tail record "
                                "(writer was interrupted)"));
            file.dropped_tail = true;
        }
        break;
    }
    if (file.payloads.empty())
        raiseError(SimErrorCode::BadJournal, what, " '", path,
                   "' has no complete header record");
    file.valid_bytes = reader.goodBytes();
    return file;
}

} // namespace aurora::util
