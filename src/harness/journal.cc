#include "journal.hh"

#include "core/stall.hh"
#include "util/logging.hh"

namespace aurora::harness
{

namespace
{

using util::ByteReader;
using util::ByteWriter;

/** Payload type tags (first byte of every record). */
constexpr std::uint8_t REC_HEADER = 1;
constexpr std::uint8_t REC_JOB = 2;

constexpr std::uint8_t MAX_ERROR_CODE =
    static_cast<std::uint8_t>(util::SimErrorCode::BadWire);

void
putOccupancy(ByteWriter &w, const core::OccupancyStats &o)
{
    w.f64(o.mean);
    w.u64(o.p50);
    w.u64(o.p95);
    w.u64(o.max);
}

core::OccupancyStats
getOccupancy(ByteReader &rd)
{
    core::OccupancyStats o;
    o.mean = rd.f64();
    o.p50 = rd.u64();
    o.p95 = rd.u64();
    o.max = rd.u64();
    return o;
}

void
putRunResult(ByteWriter &w, const core::RunResult &r)
{
    w.str(r.model);
    w.str(r.benchmark);
    w.u64(r.instructions);
    w.u64(r.cycles);
    w.u64(r.issuing_cycles);
    w.u64(r.tail_cycles);
    w.u32(static_cast<std::uint32_t>(r.stalls.size()));
    for (const auto s : r.stalls)
        w.u64(s);
    w.f64(r.icache_hit_pct);
    w.f64(r.dcache_hit_pct);
    w.f64(r.iprefetch_hit_pct);
    w.f64(r.dprefetch_hit_pct);
    w.f64(r.write_cache_hit_pct);
    w.u64(r.stores);
    w.u64(r.store_transactions);
    w.u64(r.fp_dispatched);
    w.u64(r.fpu.issued);
    w.u64(r.fpu.dual_cycles);
    w.u64(r.fpu.blocked_operand);
    w.u64(r.fpu.blocked_unit);
    w.u64(r.fpu.blocked_rob);
    w.u64(r.fpu.blocked_bus);
    w.u64(r.fpu.loads);
    w.u64(r.fpu.stores);
    w.f64(r.rbe_cost);
    w.u64(r.ledger.trace_instructions);
    w.u64(r.ledger.retired);
    w.u64(r.ledger.icache_hits);
    w.u64(r.ledger.icache_misses);
    w.u64(r.ledger.icache_accesses);
    w.u64(r.ledger.dcache_hits);
    w.u64(r.ledger.dcache_misses);
    w.u64(r.ledger.dcache_accesses);
    w.u64(r.ledger.mshr_allocations);
    w.u64(r.ledger.mshr_releases);
    w.u64(r.ledger.mshr_outstanding);
    for (const auto c : r.issue_width_cycles)
        w.u64(c);
    w.f64(r.avg_rob_occupancy);
    w.f64(r.avg_mshr_occupancy);
    putOccupancy(w, r.rob_occupancy);
    putOccupancy(w, r.mshr_occupancy);
    putOccupancy(w, r.fp_instq_occupancy);
    putOccupancy(w, r.fp_loadq_occupancy);
    putOccupancy(w, r.fp_storeq_occupancy);
}

core::RunResult
getRunResult(ByteReader &rd)
{
    core::RunResult r;
    r.model = rd.str();
    r.benchmark = rd.str();
    r.instructions = rd.u64();
    r.cycles = rd.u64();
    r.issuing_cycles = rd.u64();
    r.tail_cycles = rd.u64();
    if (rd.u32() != core::NUM_STALL_CAUSES)
        util::raiseError(util::SimErrorCode::BadJournal,
                         "journaled stall-cause count does not match "
                         "this build");
    for (auto &s : r.stalls)
        s = rd.u64();
    r.icache_hit_pct = rd.f64();
    r.dcache_hit_pct = rd.f64();
    r.iprefetch_hit_pct = rd.f64();
    r.dprefetch_hit_pct = rd.f64();
    r.write_cache_hit_pct = rd.f64();
    r.stores = rd.u64();
    r.store_transactions = rd.u64();
    r.fp_dispatched = rd.u64();
    r.fpu.issued = rd.u64();
    r.fpu.dual_cycles = rd.u64();
    r.fpu.blocked_operand = rd.u64();
    r.fpu.blocked_unit = rd.u64();
    r.fpu.blocked_rob = rd.u64();
    r.fpu.blocked_bus = rd.u64();
    r.fpu.loads = rd.u64();
    r.fpu.stores = rd.u64();
    r.rbe_cost = rd.f64();
    r.ledger.trace_instructions = rd.u64();
    r.ledger.retired = rd.u64();
    r.ledger.icache_hits = rd.u64();
    r.ledger.icache_misses = rd.u64();
    r.ledger.icache_accesses = rd.u64();
    r.ledger.dcache_hits = rd.u64();
    r.ledger.dcache_misses = rd.u64();
    r.ledger.dcache_accesses = rd.u64();
    r.ledger.mshr_allocations = rd.u64();
    r.ledger.mshr_releases = rd.u64();
    r.ledger.mshr_outstanding = rd.u64();
    for (auto &c : r.issue_width_cycles)
        c = rd.u64();
    r.avg_rob_occupancy = rd.f64();
    r.avg_mshr_occupancy = rd.f64();
    r.rob_occupancy = getOccupancy(rd);
    r.mshr_occupancy = getOccupancy(rd);
    r.fp_instq_occupancy = getOccupancy(rd);
    r.fp_loadq_occupancy = getOccupancy(rd);
    r.fp_storeq_occupancy = getOccupancy(rd);
    return r;
}

std::string
headerPayload(std::uint64_t fingerprint, std::uint64_t jobs)
{
    ByteWriter w;
    w.u8(REC_HEADER);
    w.u32(JOURNAL_VERSION);
    w.u64(fingerprint);
    w.u64(jobs);
    return w.bytes();
}

std::string
jobPayload(const JournalRecord &rec)
{
    ByteWriter w;
    w.u8(REC_JOB);
    w.u64(rec.job_index);
    w.u64(rec.machine_hash);
    w.u64(rec.seed);
    w.u32(rec.outcome.attempts);
    w.u8(rec.outcome.ok ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(rec.outcome.code));
    w.str(rec.outcome.error);
    w.f64(rec.outcome.seconds);
    if (rec.outcome.ok)
        putRunResult(w, rec.outcome.result);
    return w.bytes();
}

JournalRecord
parseJobPayload(ByteReader &rd)
{
    JournalRecord rec;
    rec.job_index = rd.u64();
    rec.machine_hash = rd.u64();
    rec.seed = rd.u64();
    rec.outcome.attempts = rd.u32();
    rec.outcome.ok = rd.u8() != 0;
    const std::uint8_t code = rd.u8();
    if (code > MAX_ERROR_CODE)
        util::raiseError(util::SimErrorCode::BadJournal,
                         "journaled error code ",
                         static_cast<unsigned>(code),
                         " is out of range");
    rec.outcome.code = static_cast<util::SimErrorCode>(code);
    rec.outcome.error = rd.str();
    rec.outcome.seconds = rd.f64();
    if (rec.outcome.ok)
        rec.outcome.result = getRunResult(rd);
    if (!rd.exhausted())
        util::raiseError(util::SimErrorCode::BadJournal,
                         "trailing bytes after a job record "
                         "(format mismatch)");
    return rec;
}

} // namespace

std::string
encodeJournalRecord(const JournalRecord &record)
{
    return jobPayload(record);
}

JournalRecord
decodeJournalRecord(const std::string &payload)
{
    ByteReader rd(payload);
    if (rd.u8() != REC_JOB)
        util::raiseError(util::SimErrorCode::BadJournal,
                         "payload is not a job record");
    return parseJobPayload(rd);
}

std::string
runResultBytes(const core::RunResult &result)
{
    ByteWriter w;
    putRunResult(w, result);
    return w.bytes();
}

std::uint64_t
gridFingerprint(const std::vector<SweepJob> &grid,
                const std::optional<std::uint64_t> &base_seed)
{
    ByteWriter w;
    w.u8(base_seed ? 1 : 0);
    w.u64(base_seed ? *base_seed : 0);
    w.u64(grid.size());
    for (const SweepJob &job : grid) {
        w.u64(machineHash(job.machine));
        w.str(job.profile.name);
        w.u64(job.profile.seed);
        w.u64(job.instructions);
        w.u64(jobSeed(job, base_seed));
    }
    return util::fnv1a64(w.bytes());
}

JournalRecord
runJob(const SweepJob &job, std::size_t index, SweepOptions policy)
{
    policy.workers = 1;
    policy.preflight = false;
    policy.span_job_base = index;
    JournalRecord rec;
    rec.job_index = index;
    rec.machine_hash = machineHash(job.machine);
    rec.seed = jobSeed(job, policy.base_seed);
    rec.outcome = std::move(
        SweepRunner(std::move(policy)).runOutcomes({job}).front());
    return rec;
}

LoadedJournal
loadJournal(const std::string &path)
{
    util::RecordFileReader reader(path);
    LoadedJournal loaded;

    std::string payload;
    switch (reader.next(payload)) {
      case util::RecordStatus::Ok:
        break;
      case util::RecordStatus::EndOfFile:
      case util::RecordStatus::TruncatedTail:
        util::raiseError(util::SimErrorCode::BadJournal, "journal '",
                         path, "' has no complete header record");
      case util::RecordStatus::Corrupt:
        util::raiseError(util::SimErrorCode::BadJournal, "journal '",
                         path, "' header record is corrupt");
    }
    {
        ByteReader rd(payload);
        if (rd.u8() != REC_HEADER)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "journal '", path,
                             "' does not start with a header record");
        const std::uint32_t version = rd.u32();
        if (version != JOURNAL_VERSION)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "journal '", path, "' is format version ",
                             version, "; this build reads version ",
                             JOURNAL_VERSION);
        loaded.fingerprint = rd.u64();
        loaded.jobs = rd.u64();
    }

    for (;;) {
        const util::RecordStatus status = reader.next(payload);
        if (status == util::RecordStatus::EndOfFile)
            break;
        if (status == util::RecordStatus::TruncatedTail) {
            // The signature of a writer killed mid-append: the torn
            // record's job simply re-runs on resume.
            warn(detail::concat("journal '", path,
                                "': dropping torn tail record "
                                "(writer was interrupted)"));
            loaded.dropped_tail = true;
            break;
        }
        if (status == util::RecordStatus::Corrupt)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "journal '", path,
                             "' is corrupt mid-file (bad frame or "
                             "CRC mismatch) — refusing to resume "
                             "from it");
        ByteReader rd(payload);
        if (rd.u8() != REC_JOB)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "journal '", path,
                             "' contains an unknown record type");
        JournalRecord rec = parseJobPayload(rd);
        if (rec.job_index >= loaded.jobs)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "journal '", path, "' job index ",
                             rec.job_index, " is outside its ",
                             loaded.jobs, "-job grid");
        loaded.records.push_back(std::move(rec));
    }
    loaded.valid_bytes = reader.goodBytes();
    return loaded;
}

JournalWriter::JournalWriter(const std::string &path,
                             std::uint64_t fingerprint,
                             std::uint64_t jobs)
    : writer_(path, /*truncate=*/true)
{
    writer_.append(headerPayload(fingerprint, jobs));
}

JournalWriter::JournalWriter(const std::string &path)
    : writer_(path, /*truncate=*/false)
{
}

void
JournalWriter::append(const JournalRecord &record)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    writer_.append(jobPayload(record));
}

} // namespace aurora::harness
