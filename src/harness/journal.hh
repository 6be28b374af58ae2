/**
 * @file
 * Crash-safe sweep journal: durable, resumable design-space grids.
 *
 * A sweep of thousands of (machine, workload) points used to be as
 * durable as its process: one SIGKILL and every completed job was
 * gone. The journal makes sweep progress append-only on disk —
 * SweepRunner writes one record through as each job completes — and
 * *resume* replays a partially-written journal so only missing or
 * failed jobs re-run.
 *
 * File layout (records framed by util/record_io, each CRC32-checked):
 *
 *   record 0: header  — format version, grid fingerprint, job count
 *   record k: job     — grid index, machineHash, derived seed,
 *                       attempts, outcome (full RunResult stats, or
 *                       the error code + message)
 *
 * The **grid fingerprint** digests the base seed and every job's
 * (machineHash, profile name, profile seed, instruction budget,
 * derived seed). Resuming against a journal whose fingerprint does
 * not match the grid being launched raises SimError{BadJournal}: a
 * journal must never replay results for a *different* experiment.
 *
 * Corruption policy (journal-corruption hardening): a torn tail
 * record — the signature of a writer killed mid-append — is dropped
 * with a warning and its job simply re-runs; any mid-file damage
 * (bad magic, bad CRC) raises BadJournal, because a file that rotted
 * in place cannot be trusted at all.
 *
 * Determinism: a journaled RunResult is stored bit-exactly (doubles
 * by bit pattern), and resumed jobs replay their journaled stats
 * verbatim while missing jobs re-derive the same seeds — so a killed
 * and resumed sweep is bit-identical to an uninterrupted one at any
 * worker count (docs/robustness.md, bench_ext_fault_storm).
 */

#ifndef AURORA_HARNESS_JOURNAL_HH
#define AURORA_HARNESS_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sweep.hh"
#include "util/record_io.hh"

namespace aurora::harness
{

/**
 * Journal format version (header record). Version 2 added the
 * occupancy-distribution stats (OccupancyStats p50/p95/max) to the
 * serialized RunResult; version-1 journals are refused with
 * BadJournal rather than misread field-by-field.
 */
inline constexpr std::uint32_t JOURNAL_VERSION = 2;

/** One journaled job completion. */
struct JournalRecord
{
    /** Grid index the outcome belongs to. */
    std::uint64_t job_index = 0;
    /** machineHash of the job's configuration (integrity check). */
    std::uint64_t machine_hash = 0;
    /** Workload seed the job actually ran with. */
    std::uint64_t seed = 0;
    /** Outcome, including the full RunResult stats when ok. */
    SweepOutcome outcome;
};

/** Everything loadJournal() recovered from disk. */
struct LoadedJournal
{
    std::uint64_t fingerprint = 0;
    /** Job count of the journaled grid. */
    std::uint64_t jobs = 0;
    std::vector<JournalRecord> records;
    /** A torn tail record was dropped (writer was killed). */
    bool dropped_tail = false;
    /**
     * File length up to the end of the last good record. When
     * dropped_tail is set, the file must be truncated to this length
     * before reopening it for append — otherwise the fragment gets
     * buried mid-file and the next load classifies it Corrupt.
     */
    std::uint64_t valid_bytes = 0;
};

/**
 * Stable digest of a sweep grid + seeding policy. Two launches
 * fingerprint equal iff they would run the same jobs with the same
 * seeds — the precondition for replaying journaled results.
 */
std::uint64_t gridFingerprint(
    const std::vector<SweepJob> &grid,
    const std::optional<std::uint64_t> &base_seed);

/**
 * Run grid job @p job (grid index @p index) on its own, returning
 * the record a serial journaled SweepRunner would append for it —
 * byte for byte. Takes @p policy's seed, retry, deadline, backoff,
 * cancel, and span settings; forces one worker, no preflight (the
 * grid's owner lints at admission), and span job ids offset by
 * @p index. aurora_serve's worker pool and aurora_shardd
 * both execute every job through here, which is what makes serial,
 * serve, and shard results bit-identical by construction.
 */
JournalRecord runJob(const SweepJob &job, std::size_t index,
                     SweepOptions policy);

/**
 * Parse a journal file. Throws util::SimError (BadJournal) on a
 * missing/unreadable file, bad header, version mismatch, or mid-file
 * corruption; a torn tail record is dropped with a warning and
 * reported via LoadedJournal::dropped_tail.
 */
LoadedJournal loadJournal(const std::string &path);

/**
 * Serialize one journal record to its payload bytes — the exact
 * encoding a JournalWriter appends (type tag included), reused by the
 * sweep service as the wire form of a streamed job result so a
 * re-attached client replays the same bytes the journal holds.
 */
std::string encodeJournalRecord(const JournalRecord &record);

/**
 * Invert encodeJournalRecord. Throws util::SimError (BadJournal) on
 * a wrong type tag, out-of-range error code, or size mismatch.
 */
JournalRecord decodeJournalRecord(const std::string &payload);

/**
 * Bit-exact serialization of a RunResult alone (doubles by bit
 * pattern). Two results serialize equal iff every statistic matches
 * exactly — the equality probe the service's resume drills use.
 */
std::string runResultBytes(const core::RunResult &result);

/**
 * Append-side of the journal. Thread-safe: worker threads append
 * completion records concurrently; every record is flushed before
 * append() returns, so a SIGKILL never loses a completed job (and
 * tears at most the record being written).
 */
class JournalWriter
{
  public:
    /** Start a fresh journal (truncates; writes the header). */
    JournalWriter(const std::string &path, std::uint64_t fingerprint,
                  std::uint64_t jobs);

    /** Reopen an existing journal for appending (resume). */
    explicit JournalWriter(const std::string &path);

    void append(const JournalRecord &record);

    const std::string &path() const { return writer_.path(); }

  private:
    std::mutex mutex_;
    util::RecordFileWriter writer_;
};

} // namespace aurora::harness

#endif // AURORA_HARNESS_JOURNAL_HH
