/**
 * @file
 * Crash-safe append-only record files (the sweep-journal substrate).
 *
 * A journal must survive the process that writes it being SIGKILLed
 * mid-append: everything already flushed stays readable, and the one
 * record that may have been torn is detected and dropped rather than
 * poisoning the file. Each record is therefore framed independently,
 * by util/frame's frame() and FrameDecoder under magic 'AJRN':
 *
 *     [u32 magic 'AJRN'] [u32 payload_len] [u32 crc32(payload)] [payload]
 *
 * all little-endian. The reader classifies what it finds:
 *
 *  - a record that ends exactly at EOF with a valid CRC is Ok;
 *  - bytes at EOF too short to complete a header or payload are a
 *    torn tail (TruncatedTail) — the expected signature of a killed
 *    writer, recoverable by dropping the fragment;
 *  - a bad magic, an implausible length, or a CRC mismatch on a
 *    complete record is Corrupt — the file was damaged, not torn,
 *    and the caller must not trust any of it.
 *
 * Payloads are encoded with ByteWriter/ByteReader: explicit
 * little-endian integers and bit-exact doubles, so a journaled
 * statistic replays on any host exactly as it was measured.
 */

#ifndef AURORA_UTIL_RECORD_IO_HH
#define AURORA_UTIL_RECORD_IO_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "frame.hh"
#include "sim_error.hh"

namespace aurora::util
{

/** CRC-32 (IEEE 802.3, reflected) of @p len bytes at @p data. */
std::uint32_t crc32(const void *data, std::size_t len);

/** crc32 over a byte string. */
std::uint32_t crc32(const std::string &bytes);

/** FNV-1a 64-bit digest of a byte string (fingerprints, hashes). */
std::uint64_t fnv1a64(const std::string &bytes,
                      std::uint64_t h = 0xcbf29ce484222325ull);

/** Little-endian append-only payload encoder. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** Bit-exact double (round-trips NaN payloads and -0.0). */
    void f64(double v);
    /** Length-prefixed string. */
    void str(const std::string &s);

    const std::string &bytes() const { return bytes_; }

  private:
    std::string bytes_;
};

/**
 * Little-endian payload decoder. An underrun — asking for more bytes
 * than the payload holds — throws SimError(@p error, BadJournal by
 * default): the payload passed its CRC, so a short read means a
 * format/version mismatch, not bit rot.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &bytes,
                        SimErrorCode error = SimErrorCode::BadJournal)
        : bytes_(bytes), error_(error)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();

    /** Payload fully consumed? (Decoders check this last.) */
    bool exhausted() const { return pos_ == bytes_.size(); }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return bytes_.size() - pos_; }

  private:
    void need(std::size_t n) const;

    const std::string &bytes_;
    SimErrorCode error_;
    std::size_t pos_ = 0;
};

/** What RecordFileReader::next() found. */
enum class RecordStatus
{
    Ok,            ///< a complete, CRC-valid record
    EndOfFile,     ///< clean end: the previous record ended at EOF
    TruncatedTail, ///< torn final record (killed writer); drop it
    Corrupt,       ///< damaged mid-file: bad magic, length, or CRC
};

/** Display name of a RecordStatus. */
const char *recordStatusName(RecordStatus status);

/**
 * Append-only record writer. Every append() frames the payload,
 * writes it, and flushes to the OS so a later SIGKILL cannot lose it
 * (a kill *during* append leaves at most one torn tail record).
 */
class RecordFileWriter
{
  public:
    /**
     * @param path file to write; @p truncate starts fresh, otherwise
     *        appends after existing records. Throws
     *        SimError(BadJournal) if the file cannot be opened.
     */
    RecordFileWriter(const std::string &path, bool truncate);

    /** Frame, write, and flush one payload. */
    void append(const std::string &payload);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
};

/** Sequential reader over a record file. */
class RecordFileReader
{
  public:
    /** Throws SimError(BadJournal) if @p path cannot be opened. */
    explicit RecordFileReader(const std::string &path);

    /**
     * Read the next record into @p payload. Returns Ok with the
     * payload filled, or a terminal status (EndOfFile /
     * TruncatedTail / Corrupt) after which next() must not be called
     * again.
     */
    RecordStatus next(std::string &payload);

    /**
     * File offset just past the last Ok record. After a
     * TruncatedTail, truncating the file to this length removes the
     * torn fragment so an appending writer does not bury it mid-file
     * (where the next reader would classify it Corrupt).
     */
    std::uint64_t goodBytes() const { return good_bytes_; }

  private:
    std::string path_;
    std::ifstream in_;
    FrameDecoder decoder_;
    std::uint64_t good_bytes_ = 0;
};

/** Every complete record of one record file (readRecordFile()). */
struct RecordFile
{
    std::vector<std::string> payloads;
    /** A torn tail record was dropped (its writer was killed). */
    bool dropped_tail = false;
    /**
     * File length through the last complete record. When
     * dropped_tail is set, the file must be truncated to this length
     * before it is reopened for append — otherwise the fragment gets
     * buried mid-file and the next read classifies it Corrupt.
     */
    std::uint64_t valid_bytes = 0;
};

/**
 * Read every record of @p path, which @p what names in messages
 * ("journal"). A torn tail record is dropped with a warning. A
 * missing file, a file without one complete record (every format
 * starts with a header), and mid-file damage raise
 * SimError(BadJournal).
 */
RecordFile readRecordFile(const std::string &path, const char *what);

/** Sanity cap on a single record (a corrupt length field must not
 *  trigger a gigabyte allocation). */
inline constexpr std::uint32_t MAX_RECORD_BYTES = 1u << 24;

} // namespace aurora::util

#endif // AURORA_UTIL_RECORD_IO_HH
