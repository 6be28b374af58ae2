#include "journal.hh"

#include <filesystem>

#include "core/audit.hh"
#include "util/logging.hh"

namespace aurora::harness
{

std::string
encodeJournalRecord(const JournalRecord &record)
{
    return util::codec::encode(record);
}

JournalRecord
decodeJournalRecord(const std::string &payload)
{
    return util::codec::decode<JournalRecord>(payload);
}

std::string
runResultBytes(const core::RunResult &result)
{
    util::codec::Encoder io;
    io.as(RunResultLayout{}, result);
    return io.bytes();
}

std::uint64_t
gridFingerprint(const std::vector<SweepJob> &grid,
                const std::optional<std::uint64_t> &base_seed)
{
    util::ByteWriter w;
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
jobRecord(const SweepJob &job, std::size_t index,
          const std::optional<std::uint64_t> &base_seed,
          SweepOutcome outcome)
{
    return {index, machineHash(job.machine), jobSeed(job, base_seed),
            std::move(outcome)};
}

std::vector<JournalRecord>
runJob(const std::vector<SweepJob> &jobs,
       const std::vector<std::size_t> &indices, SweepOptions policy)
{
    policy.workers = 1;
    policy.preflight = false;
    policy.span_jobs = indices;
    const std::optional<std::uint64_t> base_seed = policy.base_seed;
    std::vector<SweepOutcome> outcomes =
        SweepRunner(std::move(policy)).runOutcomes(jobs);
    std::vector<JournalRecord> records;
    records.reserve(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k)
        records.push_back(jobRecord(jobs[k], indices[k], base_seed,
                                    std::move(outcomes[k])));
    return records;
}

LoadedJournal
loadJournal(const std::string &path)
{
    const util::RecordFile file = util::readRecordFile(path, "journal");
    LoadedJournal loaded;
    loaded.dropped_tail = file.dropped_tail;
    loaded.valid_bytes = file.valid_bytes;
    try {
        const auto header =
            util::codec::decode<JournalHeader>(file.payloads.front());
        loaded.fingerprint = header.fingerprint;
        loaded.jobs = header.jobs;
        for (std::size_t k = 1; k < file.payloads.size(); ++k) {
            JournalRecord rec = decodeJournalRecord(file.payloads[k]);
            if (rec.job_index >= loaded.jobs)
                util::raiseError(util::SimErrorCode::BadJournal,
                                 "job index ", rec.job_index,
                                 " is outside the ", loaded.jobs,
                                 "-job grid");
            loaded.records.push_back(std::move(rec));
        }
    } catch (const util::SimError &e) {
        util::raiseError(e.code(), "journal '", path, "': ",
                         e.message());
    }
    return loaded;
}

LoadedJournal
loadJournalForAppend(const std::string &path)
{
    LoadedJournal loaded = loadJournal(path);
    if (loaded.dropped_tail)
        std::filesystem::resize_file(path, loaded.valid_bytes);
    return loaded;
}

JournalWriter::JournalWriter(const std::string &path,
                             std::uint64_t fingerprint,
                             std::uint64_t jobs)
    : writer_(path, /*truncate=*/true)
{
    writer_.append(util::codec::encode(JournalHeader{fingerprint, jobs}));
}

JournalWriter::JournalWriter(const std::string &path)
    : writer_(path, /*truncate=*/false)
{
}

void
JournalWriter::append(const JournalRecord &record)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    writer_.append(encodeJournalRecord(record));
}

std::unique_ptr<JournalWriter>
openGridJournal(const std::string &path, bool resume,
                std::uint64_t fingerprint,
                std::vector<SweepOutcome> &outcomes)
{
    const std::size_t n = outcomes.size();
    // Resuming against a journal that was never created (e.g. the
    // previous run died before its first flush) degrades to a fresh
    // run — there is nothing to replay, not an error.
    if (!resume || !std::filesystem::exists(path))
        return std::make_unique<JournalWriter>(path, fingerprint, n);

    LoadedJournal loaded = loadJournalForAppend(path);
    if (loaded.fingerprint != fingerprint || loaded.jobs != n)
        util::raiseError(
            util::SimErrorCode::BadJournal, "journal '", path,
            "' was written by a different grid (fingerprint ",
            loaded.fingerprint, " over ", loaded.jobs,
            " jobs; this launch is ", fingerprint, " over ", n,
            " jobs) — it cannot replay results for this sweep");
    for (JournalRecord &rec : loaded.records) {
        if (!rec.outcome.ok)
            continue; // failed/timed-out jobs get a fresh attempt
        // A replayed result is only as trustworthy as its record:
        // re-audit what came off disk just like a fresh run.
        if (core::auditEnabled())
            core::auditRun(rec.outcome.result);
        SweepOutcome &out = outcomes[rec.job_index];
        out = std::move(rec.outcome);
        out.resumed = true;
    }
    return std::make_unique<JournalWriter>(path);
}

} // namespace aurora::harness
