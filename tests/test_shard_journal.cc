/**
 * @file
 * Shard journal tests: writer/loader round trip, the SIGKILL
 * torn-tail contract at every cut byte (the record_io fuzz pattern
 * applied to the shard format), a live grid's shard journals holding
 * exactly the committed Result bytes, and the merge's two invariants
 * — every commit byte-identical in its epoch's journal, every
 * leftover record behind a fence (AUR306 otherwise).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "shard/shard_journal.hh"
#include "shard/swarm.hh"
#include "trace/spec_profiles.hh"
#include "util/record_io.hh"
#include "util/sim_error.hh"
#include "test_tmp.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;
using namespace aurora::shard;
using aurora::util::SimError;
using aurora::util::SimErrorCode;

using aurora::test::tempPath;

/** A plausible encoded journal record for grid job @p job_index. */
std::string
recordBytes(std::uint64_t job_index)
{
    harness::JournalRecord rec;
    rec.job_index = job_index;
    rec.machine_hash = 0x1234'5678'9abc'def0ull + job_index;
    rec.seed = 42 + job_index;
    rec.outcome.ok = true;
    rec.outcome.attempts = 1;
    rec.outcome.result.instructions = 1000 + job_index;
    rec.outcome.result.cycles = 1700 + job_index;
    return harness::encodeJournalRecord(rec);
}

/** Write incarnation (@p slot, @p epoch)'s journal holding the
 *  records of @p jobs, in order. */
void
writeJournal(const std::string &path, std::uint32_t slot,
             std::uint64_t epoch, const std::vector<std::uint64_t> &jobs)
{
    util::RecordFileWriter w = openShardJournal(path, slot, epoch);
    for (const std::uint64_t job : jobs)
        w.append(recordBytes(job));
}

TEST(ShardJournal, RoundTripsHeaderAndRecords)
{
    const std::string path = tempPath("shard-rt.ajrn");
    writeJournal(path, /*slot=*/3, /*epoch=*/7, {0, 1});
    const LoadedShardJournal loaded = loadShardJournal(path);
    EXPECT_EQ(loaded.slot, 3u);
    EXPECT_EQ(loaded.epoch, 7u);
    EXPECT_FALSE(loaded.dropped_tail);
    EXPECT_EQ(loaded.records,
              (std::vector<std::string>{recordBytes(0), recordBytes(1)}));
    EXPECT_EQ(loaded.valid_bytes, fs::file_size(path));
}

TEST(ShardJournal, MissingFileIsBadJournal)
{
    try {
        (void)loadShardJournal(tempPath("shard-nope.ajrn"));
        FAIL() << "missing file accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
    }
}

TEST(ShardJournal, EveryKillDuringAppendCutIsATornTail)
{
    // SIGKILL mid-append leaves a prefix of the last record. Cut the
    // file at every byte past the first record: each cut must load,
    // drop exactly the torn record, and report the good-bytes length
    // — never misparse, never lose record 0.
    const std::string path = tempPath("shard-torn.ajrn");
    std::uintmax_t first_end = 0;
    {
        util::RecordFileWriter w =
            openShardJournal(path, /*slot=*/0, /*epoch=*/2);
        w.append(recordBytes(0));
        first_end = fs::file_size(path);
        w.append(recordBytes(1));
    }
    const std::uintmax_t full = fs::file_size(path);
    ASSERT_GT(full, first_end);
    for (std::uintmax_t cut = first_end + 1; cut < full; ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        const std::string victim = tempPath("shard-torn-cut.ajrn");
        fs::copy_file(path, victim,
                      fs::copy_options::overwrite_existing);
        fs::resize_file(victim, cut);
        const LoadedShardJournal loaded = loadShardJournal(victim);
        EXPECT_TRUE(loaded.dropped_tail);
        EXPECT_EQ(loaded.valid_bytes, first_end);
        EXPECT_EQ(loaded.records,
                  std::vector<std::string>{recordBytes(0)});
    }
}

TEST(ShardJournal, TruncatedHeaderIsBadJournal)
{
    const std::string path = tempPath("shard-hdr.ajrn");
    writeJournal(path, /*slot=*/0, /*epoch=*/1, {});
    fs::resize_file(path, fs::file_size(path) / 2);
    try {
        (void)loadShardJournal(path);
        FAIL() << "torn header accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
    }
}

/**
 * A healthy two-shard grid: after each shard journal's header come
 * exactly the bytes of the Results the coordinator committed, which
 * its commit journal holds after its own header.
 */
TEST(ShardJournal, RecordsAreTheCommittedResultBytes)
{
    const auto grid = harness::suiteJobs(
        core::parseMachineSpec("model=small"), trace::integerSuite(),
        2000);
    shard::SwarmConfig config;
    config.socket_path = tempPath("shard-bytes.sock");
    config.journal_dir = tempPath("shard-bytes.jd");
    fs::remove(config.socket_path);
    fs::remove_all(config.journal_dir);
    shard::GridOptions options;
    options.journal = tempPath("shard-bytes.ajrn");
    fs::remove(options.journal);
    {
        shard::Swarm swarm(config);
        (void)swarm.runGrid(grid, options);
    }

    std::vector<std::string> journaled;
    for (const auto &entry : fs::directory_iterator(config.journal_dir)) {
        const LoadedShardJournal j =
            loadShardJournal(entry.path().string());
        journaled.insert(journaled.end(), j.records.begin(),
                         j.records.end());
    }
    std::vector<std::string> committed =
        util::readRecordFile(options.journal, "journal").payloads;
    committed.erase(committed.begin()); // the grid journal's header
    ASSERT_EQ(committed.size(), grid.size());
    std::sort(journaled.begin(), journaled.end());
    std::sort(committed.begin(), committed.end());
    EXPECT_EQ(journaled, committed);
}

/** Build journals+commits for a clean two-shard, two-epoch run. */
struct MergeFixture
{
    std::vector<ShardJournalRef> journals;
    std::vector<CommitRef> commits;
    std::set<std::uint64_t> fenced;

    MergeFixture(const std::string &tag)
    {
        const std::string p1 =
            tempPath("merge-" + tag + "-e1.ajrn");
        const std::string p2 =
            tempPath("merge-" + tag + "-e2.ajrn");
        writeJournal(p1, /*slot=*/0, /*epoch=*/1, {0, 2});
        writeJournal(p2, /*slot=*/1, /*epoch=*/2, {1});
        journals = {{1, 0, p1}, {2, 1, p2}};
        commits = {{0, 0, 1, recordBytes(0)},
                   {1, 1, 2, recordBytes(1)},
                   {2, 0, 1, recordBytes(2)}};
    }
};

TEST(ShardMergeInvariants, CleanRunMergesInSubmissionOrder)
{
    const MergeFixture fx("clean");
    const std::vector<harness::JournalRecord> records =
        mergeShardJournals(fx.journals, fx.commits, fx.fenced);
    ASSERT_EQ(records.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(records[i].job_index, i);
        EXPECT_EQ(harness::encodeJournalRecord(records[i]),
                  recordBytes(i));
    }
}

TEST(ShardMergeInvariants, CommitMissingFromJournalIsAUR306)
{
    MergeFixture fx("missing");
    // Claim a commit (job 3 under epoch 2) that no journal persisted:
    // the durable-before-visible rule was violated somewhere.
    fx.commits.push_back({3, 1, 2, recordBytes(3)});
    try {
        (void)mergeShardJournals(fx.journals, fx.commits, fx.fenced);
        FAIL() << "unjournaled commit accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
        EXPECT_NE(std::string(e.what()).find("AUR306"),
                  std::string::npos);
    }
}

TEST(ShardMergeInvariants, CommitBytesMustMatchJournalBytes)
{
    MergeFixture fx("bytes");
    // Same job, different bytes: what the coordinator accepted is not
    // what the shard persisted.
    harness::JournalRecord other =
        harness::decodeJournalRecord(recordBytes(1));
    other.seed += 1;
    fx.commits[1].record = harness::encodeJournalRecord(other);
    try {
        (void)mergeShardJournals(fx.journals, fx.commits, fx.fenced);
        FAIL() << "byte mismatch accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
        EXPECT_NE(std::string(e.what()).find("AUR306"),
                  std::string::npos);
    }
}

TEST(ShardMergeInvariants, UncommittedEntryUnderLiveEpochIsAUR306)
{
    MergeFixture fx("smuggle");
    // Epoch 2's journal gains a record the coordinator never
    // committed, and epoch 2 was never fenced: a live shard smuggled
    // a result past the commit protocol.
    writeJournal(fx.journals[1].path, /*slot=*/1, /*epoch=*/2, {1, 5});
    try {
        (void)mergeShardJournals(fx.journals, fx.commits, fx.fenced);
        FAIL() << "smuggled entry accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
        EXPECT_NE(std::string(e.what()).find("AUR306"),
                  std::string::npos);
    }
}

TEST(ShardMergeInvariants, ZombieAppendBehindFenceMergesClean)
{
    MergeFixture fx("zombie");
    // The same extra record is fine when its epoch is fenced: that is
    // exactly the refused zombie append, physically contained in a
    // dead incarnation's file.
    writeJournal(fx.journals[0].path, /*slot=*/0, /*epoch=*/1,
                 {0, 2, 5});
    fx.fenced.insert(1);
    const std::vector<harness::JournalRecord> records =
        mergeShardJournals(fx.journals, fx.commits, fx.fenced);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(harness::encodeJournalRecord(records[2]),
              recordBytes(2));
}

TEST(ShardMergeInvariants, ResumedRunMergesSparseCommits)
{
    // A resumed grid deals only the missing jobs: commits cover
    // indices {1, 3} while {0, 2} were replayed from the coordinator
    // journal. The merge must accept the gap.
    const std::string p =
        tempPath("merge-sparse-e1.ajrn");
    writeJournal(p, /*slot=*/0, /*epoch=*/1, {1, 3});
    const std::vector<ShardJournalRef> journals = {{1, 0, p}};
    const std::vector<CommitRef> commits = {{1, 0, 1, recordBytes(1)},
                                            {3, 0, 1, recordBytes(3)}};
    const std::vector<harness::JournalRecord> records =
        mergeShardJournals(journals, commits, {});
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].job_index, 1u);
    EXPECT_EQ(records[1].job_index, 3u);
}

} // namespace
