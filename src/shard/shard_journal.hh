/**
 * @file
 * Per-shard local journal and the coordinator's deterministic merge.
 *
 * Every shard persists each completed job locally *before* offering
 * the result to the coordinator — the same durable-before-visible
 * rule aurora_serve follows — using the journal's CRC record framing
 * (util/record_io, written through util::RecordFileWriter like the
 * grid journal).
 *
 * File layout:
 *
 *   record 0: header — shard journal version, slot index, epoch
 *   record k: job    — harness::encodeJournalRecord() bytes, exactly
 *                      the `record` of the Result the shard sent
 *
 * (ShardJournalHeader's field list below and harness::JournalRecord's
 * are the normative layout, util/codec.hh). A job record names its
 * job by grid index; the header's epoch stamps every record after it.
 *
 * One journal file belongs to one *incarnation* (one granted epoch),
 * never to a slot: a fenced zombie and the replacement shard respawned
 * into its slot are both live processes with the file-append syscalls
 * to prove it, and sharing a path would let their appends interleave.
 * Per-epoch files make the fence physical — the zombie can only ever
 * damage a file whose epoch is already dead.
 *
 * The epoch is what makes the merge auditable. A shard that lost its
 * lease (fenced) may keep appending — it cannot know it is dead — but
 * every byte it writes lands in a file whose epoch the coordinator
 * has already fenced. At merge time mergeShardJournals() proves, for
 * a finished grid:
 *
 *   1. every committed job's record is present in its shard's journal
 *      under the committing epoch, byte-identical to what the
 *      coordinator accepted (durable-before-visible held), and
 *   2. every *other* record sits in a fenced epoch's journal (no
 *      shard smuggled an uncommitted result past the fence).
 *
 * Any violation raises SimError(BadJournal) naming catalog ID AUR306
 * — the merge refuses to fabricate or double-count results.
 *
 * Corruption policy matches the sweep journal: a torn tail (shard
 * killed mid-append) is dropped with a warning — by construction its
 * result was never offered, so nothing is lost — while mid-file
 * damage raises BadJournal.
 */

#ifndef AURORA_SHARD_SHARD_JOURNAL_HH
#define AURORA_SHARD_SHARD_JOURNAL_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harness/journal.hh"
#include "util/codec.hh"

namespace aurora::shard
{

/** Shard journal format version (header record). Version 2 follows
 *  the header with plain harness journal records. */
inline constexpr std::uint32_t SHARD_JOURNAL_VERSION = 2;

/** Record type tag of the header (payload byte 0). */
enum class ShardJournalTag : std::uint8_t
{
    Header = 1,
};

inline constexpr util::codec::Format<ShardJournalTag, 1>
    SHARD_JOURNAL_FORMAT{util::SimErrorCode::BadJournal,
                         "shard journal record",
                         {{{ShardJournalTag::Header, "header"}}}};

constexpr const auto &
formatOf(ShardJournalTag)
{
    return SHARD_JOURNAL_FORMAT;
}

/** Record 0: which slot and lease epoch own the file. */
struct ShardJournalHeader
{
    static constexpr ShardJournalTag TAG = ShardJournalTag::Header;

    std::uint32_t slot = 0;
    std::uint64_t epoch = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &h)
    {
        io.expect(SHARD_JOURNAL_VERSION, "shard journal format version");
        io(h.slot, h.epoch);
    }
};

/**
 * Start the journal of incarnation (@p slot, @p epoch) at @p path:
 * truncate the file and write its header. Each completed job's
 * harness::encodeJournalRecord() bytes are appended after it; every
 * append is flushed before it returns, so a SIGKILL tears at most the
 * record being written.
 */
util::RecordFileWriter openShardJournal(const std::string &path,
                                        std::uint32_t slot,
                                        std::uint64_t epoch);

/** Everything loadShardJournal() recovered from disk. */
struct LoadedShardJournal
{
    std::uint32_t slot = 0;
    /** Lease epoch of the incarnation that owned the file. */
    std::uint64_t epoch = 0;
    /** harness::encodeJournalRecord() bytes, in append order. */
    std::vector<std::string> records;
    /** A torn tail record was dropped (shard died mid-append). */
    bool dropped_tail = false;
    /** File length through the last good record (truncate-to-here
     *  before reopening for append). */
    std::uint64_t valid_bytes = 0;
};

/**
 * Parse a shard journal. Throws util::SimError (BadJournal) on a
 * missing/unreadable file, bad header, version mismatch, or mid-file
 * corruption; a torn tail is dropped with a warning.
 */
LoadedShardJournal loadShardJournal(const std::string &path);

/** One incarnation's journal file, as the coordinator tracked it. */
struct ShardJournalRef
{
    /** Epoch granted to the incarnation (unique across the run). */
    std::uint64_t epoch = 0;
    /** Slot the incarnation served. */
    std::uint32_t slot = 0;
    std::string path;
};

/** Where (and under which lease) one grid job committed. */
struct CommitRef
{
    /** Submission-order index in the original grid (a resumed run
     *  deals only the jobs its journal was missing, so commits need
     *  not cover a contiguous prefix). */
    std::uint64_t job_index = 0;
    /** Shard slot whose journal must hold the record. */
    std::uint32_t slot = 0;
    /** Epoch the committing shard held (current at commit time). */
    std::uint64_t epoch = 0;
    /** The committed record bytes, as accepted off the wire. */
    std::string record;
};

/**
 * Deterministic merge of per-shard journals into the grid's
 * submission-order result records, cross-checked against the
 * coordinator's commit map (see file comment for the two invariants).
 * @p journals lists every incarnation's journal file (one per granted
 * epoch); @p commits is in submission order (job_index ascending, not
 * necessarily contiguous — a resume deals only the missing jobs);
 * @p fenced_epochs holds every epoch the coordinator revoked. Returns
 * the decoded records in submission order. Throws util::SimError
 * (BadJournal, catalog AUR306) on any violation.
 */
std::vector<harness::JournalRecord>
mergeShardJournals(const std::vector<ShardJournalRef> &journals,
                   const std::vector<CommitRef> &commits,
                   const std::set<std::uint64_t> &fenced_epochs);

} // namespace aurora::shard

#endif // AURORA_SHARD_SHARD_JOURNAL_HH
