#include "shard_journal.hh"

#include <map>
#include <utility>

#include "util/sim_error.hh"

namespace aurora::shard
{

namespace
{

[[noreturn]] void
badJournal(const std::string &path, const std::string &what)
{
    util::raiseError(util::SimErrorCode::BadJournal, "shard journal ",
                     path, ": ", what);
}

} // namespace

LoadedShardJournal
loadShardJournal(const std::string &path)
{
    const util::RecordFile file =
        util::readRecordFile(path, "shard journal");
    LoadedShardJournal loaded;
    loaded.dropped_tail = file.dropped_tail;
    loaded.valid_bytes = file.valid_bytes;
    try {
        const auto header = util::codec::decode<ShardJournalHeader>(
            file.payloads.front());
        loaded.slot = header.slot;
        loaded.epoch = header.epoch;
        for (std::size_t k = 1; k < file.payloads.size(); ++k)
            loaded.entries.push_back(
                util::codec::decode<ShardJournalEntry>(
                    file.payloads[k]));
    } catch (const util::SimError &e) {
        badJournal(path, e.message());
    }
    return loaded;
}

ShardJournalWriter::ShardJournalWriter(const std::string &path,
                                       std::uint32_t slot,
                                       std::uint64_t epoch)
    : writer_(path, /*truncate=*/true)
{
    writer_.append(util::codec::encode(ShardJournalHeader{slot, epoch}));
}

void
ShardJournalWriter::append(const ShardJournalEntry &entry)
{
    writer_.append(util::codec::encode(entry));
}

std::vector<harness::JournalRecord>
mergeShardJournals(const std::vector<ShardJournalRef> &journals,
                   const std::vector<CommitRef> &commits,
                   const std::set<std::uint64_t> &fenced_epochs)
{
    // Index every surviving entry of every incarnation's journal by
    // (epoch, ticket) — the pair is unique because an epoch is
    // granted once and a ticket is assigned to one shard at a time
    // per epoch.
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             const ShardJournalEntry *>
        by_key;
    std::map<std::uint64_t, std::uint32_t> slot_of_epoch;
    std::vector<LoadedShardJournal> loaded;
    loaded.reserve(journals.size());
    for (const ShardJournalRef &ref : journals) {
        loaded.push_back(loadShardJournal(ref.path));
        const LoadedShardJournal &j = loaded.back();
        if (j.slot != ref.slot || j.epoch != ref.epoch)
            badJournal(ref.path,
                       "AUR306: header names slot " +
                           std::to_string(j.slot) + " epoch " +
                           std::to_string(j.epoch) +
                           " but the coordinator granted slot " +
                           std::to_string(ref.slot) + " epoch " +
                           std::to_string(ref.epoch));
        if (!slot_of_epoch.emplace(ref.epoch, ref.slot).second)
            badJournal(ref.path, "AUR306: epoch " +
                                     std::to_string(ref.epoch) +
                                     " granted twice");
        for (const ShardJournalEntry &entry : j.entries) {
            if (entry.epoch != j.epoch)
                badJournal(ref.path,
                           "AUR306: entry stamped epoch " +
                               std::to_string(entry.epoch) +
                               " inside the epoch-" +
                               std::to_string(j.epoch) + " journal");
            if (!by_key.emplace(std::make_pair(entry.epoch,
                                               entry.ticket),
                                &entry)
                     .second)
                badJournal(ref.path,
                           "AUR306: duplicate entry for epoch " +
                               std::to_string(entry.epoch) +
                               " ticket " +
                               std::to_string(entry.ticket));
        }
    }

    // Invariant 1: every commit is present in its shard's journal
    // under the committing epoch, byte-identical to what the
    // coordinator accepted off the wire.
    std::vector<harness::JournalRecord> merged;
    merged.reserve(commits.size());
    for (const CommitRef &commit : commits) {
        const auto granted = slot_of_epoch.find(commit.epoch);
        if (granted == slot_of_epoch.end() ||
            granted->second != commit.slot)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "shard journal merge: AUR306: job ",
                             commit.job_index,
                             " committed under epoch ", commit.epoch,
                             " slot ", commit.slot,
                             " but no such lease was granted");
        const auto it =
            by_key.find(std::make_pair(commit.epoch, commit.ticket));
        if (it == by_key.end())
            util::raiseError(util::SimErrorCode::BadJournal,
                             "shard journal merge: AUR306: committed "
                             "record for job ", commit.job_index,
                             " (ticket ", commit.ticket, ", epoch ",
                             commit.epoch,
                             ") is missing from its shard journal — "
                             "durable-before-visible was violated");
        if (it->second->record != commit.record)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "shard journal merge: AUR306: journaled "
                             "bytes for job ", commit.job_index,
                             " disagree with the committed record");
        harness::JournalRecord record =
            harness::decodeJournalRecord(commit.record);
        if (record.job_index != commit.job_index)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "shard journal merge: AUR306: committed "
                             "record for job ", commit.job_index,
                             " carries grid index ", record.job_index);
        merged.push_back(std::move(record));
        by_key.erase(it);
    }

    // Invariant 2: whatever remains was never committed, so it must
    // be the work of a fenced incarnation — a zombie writing behind
    // the fence, or a shard that died between append and send. A
    // leftover under a *live* epoch means a result was offered and
    // lost, or a shard ran work it was never assigned.
    for (const auto &[key, entry] : by_key) {
        if (fenced_epochs.count(key.first) == 0)
            util::raiseError(util::SimErrorCode::BadJournal,
                             "shard journal merge: AUR306: "
                             "uncommitted entry for ticket ",
                             entry->ticket, " under live epoch ",
                             entry->epoch);
    }

    return merged;
}

} // namespace aurora::shard
