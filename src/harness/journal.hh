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
 * The field lists below (JournalHeader, JournalRecord,
 * RunResultLayout) are the normative byte layout (util/codec.hh).
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
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/stall.hh"
#include "sweep.hh"
#include "util/codec.hh"
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

/** Record type tags (payload byte 0). */
enum class JournalTag : std::uint8_t
{
    Header = 1,
    Job = 2,
};

inline constexpr util::codec::Format<JournalTag, 2> JOURNAL_FORMAT{
    util::SimErrorCode::BadJournal,
    "journal record",
    {{{JournalTag::Header, "header"}, {JournalTag::Job, "job"}}}};

constexpr const auto &
formatOf(JournalTag)
{
    return JOURNAL_FORMAT;
}

/** Record 0 of every journal. */
struct JournalHeader
{
    static constexpr JournalTag TAG = JournalTag::Header;

    std::uint64_t fingerprint = 0;
    /** Job count of the journaled grid. */
    std::uint64_t jobs = 0;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &h)
    {
        io.expect(JOURNAL_VERSION, "journal format version");
        io(h.fingerprint, h.jobs);
    }
};

/** core::RunResult in journal byte order: every statistic, doubles
 *  by bit pattern. */
struct RunResultLayout
{
    template <typename Io, typename R>
    static void
    fields(Io &io, R &r)
    {
        io(r.model, r.benchmark, r.instructions, r.cycles,
           r.issuing_cycles, r.tail_cycles);
        io.expect(static_cast<std::uint32_t>(core::NUM_STALL_CAUSES),
                  "stall-cause count");
        io(r.stalls, r.icache_hit_pct, r.dcache_hit_pct,
           r.iprefetch_hit_pct, r.dprefetch_hit_pct,
           r.write_cache_hit_pct, r.stores, r.store_transactions,
           r.fp_dispatched);
        auto &f = r.fpu;
        io(f.issued, f.dual_cycles, f.blocked_operand, f.blocked_unit,
           f.blocked_rob, f.blocked_bus, f.loads, f.stores, r.rbe_cost);
        auto &l = r.ledger;
        io(l.trace_instructions, l.retired, l.icache_hits,
           l.icache_misses, l.icache_accesses, l.dcache_hits,
           l.dcache_misses, l.dcache_accesses, l.mshr_allocations,
           l.mshr_releases, l.mshr_outstanding);
        io(r.issue_width_cycles, r.avg_rob_occupancy,
           r.avg_mshr_occupancy);
        for (auto *o : {&r.rob_occupancy, &r.mshr_occupancy,
                        &r.fp_instq_occupancy, &r.fp_loadq_occupancy,
                        &r.fp_storeq_occupancy})
            io(o->mean, o->p50, o->p95, o->max);
    }
};

/** One journaled job completion. */
struct JournalRecord
{
    static constexpr JournalTag TAG = JournalTag::Job;

    /** Grid index the outcome belongs to. */
    std::uint64_t job_index = 0;
    /** machineHash of the job's configuration (integrity check). */
    std::uint64_t machine_hash = 0;
    /** Workload seed the job actually ran with. */
    std::uint64_t seed = 0;
    /** Outcome, including the full RunResult stats when ok. */
    SweepOutcome outcome;

    template <typename Io, typename Self>
    static void
    fields(Io &io, Self &r)
    {
        auto &o = r.outcome;
        io(r.job_index, r.machine_hash, r.seed, o.attempts, o.ok, o.code,
           o.error, o.seconds);
        if (o.ok)
            io.as(RunResultLayout{}, o.result);
    }
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
    /** File length through the last good record: what
     *  loadJournalForAppend() truncates a torn file to. */
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
 * The record journaling @p outcome as grid job @p index: @p job's
 * machineHash and the seed it runs with under @p base_seed.
 */
JournalRecord jobRecord(const SweepJob &job, std::size_t index,
                        const std::optional<std::uint64_t> &base_seed,
                        SweepOutcome outcome);

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
 * loadJournal(), then cut a torn tail off the file so it can be
 * reopened for append: left in place, the fragment would sit
 * mid-file and read as Corrupt next time.
 */
LoadedJournal loadJournalForAppend(const std::string &path);

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

/**
 * Open @p path as the journal of a grid of @p outcomes.size() jobs
 * whose gridFingerprint() is @p fingerprint. The journal starts
 * fresh unless @p resume is set and the file exists. Then it must be
 * this grid's (else SimError(BadJournal): "written by a different
 * grid"); every ok record replays into @p outcomes with `resumed`
 * set (failed jobs get a fresh attempt) and is re-audited under
 * AURORA_AUDIT; and a torn tail is cut off before the file reopens
 * for append. SweepRunner and shard::Swarm both open grid journals
 * here.
 */
std::unique_ptr<JournalWriter>
openGridJournal(const std::string &path, bool resume,
                std::uint64_t fingerprint,
                std::vector<SweepOutcome> &outcomes);

} // namespace aurora::harness

#endif // AURORA_HARNESS_JOURNAL_HH
