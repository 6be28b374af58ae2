/**
 * @file
 * Sweep-journal tests: write-through + load round trips, resume that
 * replays bit-identically at any worker count, grid-fingerprint
 * verification, torn-tail recovery, mid-file corruption rejection,
 * and a seeded corruption fuzz over whole journal files.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"
#include "test_tmp.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using namespace aurora::harness;
namespace fi = aurora::faultinject;
namespace fs = std::filesystem;
using util::SimErrorCode;

constexpr Count N = 5000;
constexpr std::uint64_t BASE_SEED = 0x10ad;

using aurora::test::tempPath;

/** A 6-job grid: 2 models x 3 benchmarks. */
std::vector<SweepJob>
smallGrid()
{
    std::vector<SweepJob> grid;
    for (const auto &machine :
         {baselineModel(), largeModel()})
        for (const char *bench : {"espresso", "li", "nasa7"})
            grid.push_back(
                {machine, trace::profileByName(bench), N});
    return grid;
}

SweepOptions
journalOptions(const std::string &path, bool resume = false,
               unsigned workers = 1)
{
    SweepOptions opts;
    opts.workers = workers;
    opts.base_seed = BASE_SEED;
    opts.journal = path;
    opts.resume = resume;
    return opts;
}

/** Field-exact RunResult comparison (bit-identical doubles). */
void
expectRunEq(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.issuing_cycles, b.issuing_cycles);
    EXPECT_EQ(a.tail_cycles, b.tail_cycles);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_EQ(a.icache_hit_pct, b.icache_hit_pct);
    EXPECT_EQ(a.dcache_hit_pct, b.dcache_hit_pct);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.store_transactions, b.store_transactions);
    EXPECT_EQ(a.fp_dispatched, b.fp_dispatched);
    EXPECT_EQ(a.fpu.issued, b.fpu.issued);
    EXPECT_EQ(a.rbe_cost, b.rbe_cost);
    EXPECT_EQ(a.ledger.retired, b.ledger.retired);
    EXPECT_EQ(a.ledger.mshr_allocations, b.ledger.mshr_allocations);
    EXPECT_EQ(a.issue_width_cycles, b.issue_width_cycles);
    EXPECT_EQ(a.avg_rob_occupancy, b.avg_rob_occupancy);
    EXPECT_EQ(a.avg_mshr_occupancy, b.avg_mshr_occupancy);
    const auto occ_eq = [](const OccupancyStats &x,
                           const OccupancyStats &y) {
        EXPECT_EQ(x.mean, y.mean);
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p95, y.p95);
        EXPECT_EQ(x.max, y.max);
    };
    occ_eq(a.rob_occupancy, b.rob_occupancy);
    occ_eq(a.mshr_occupancy, b.mshr_occupancy);
    occ_eq(a.fp_instq_occupancy, b.fp_instq_occupancy);
    occ_eq(a.fp_loadq_occupancy, b.fp_loadq_occupancy);
    occ_eq(a.fp_storeq_occupancy, b.fp_storeq_occupancy);
}

/** Run the grid journal-free as the bit-exactness reference. */
std::vector<SweepOutcome>
reference(const std::vector<SweepJob> &grid)
{
    SweepOptions opts;
    opts.workers = 1;
    opts.base_seed = BASE_SEED;
    SweepRunner runner(opts);
    return runner.runOutcomes(grid);
}

/**
 * Write a journal holding only the first @p keep job records by
 * re-running the grid journaled, then truncating the record list —
 * the deterministic stand-in for a sweep killed after @p keep jobs.
 */
std::string
partialJournal(const std::vector<SweepJob> &grid, std::size_t keep,
               const std::string &name)
{
    const std::string full = tempPath(name + ".full");
    SweepRunner runner(journalOptions(full));
    runner.runOutcomes(grid);

    const LoadedJournal loaded = loadJournal(full);
    const std::string partial = tempPath(name);
    JournalWriter writer(partial, loaded.fingerprint, loaded.jobs);
    for (std::size_t k = 0; k < keep; ++k)
        writer.append(loaded.records[k]);
    return partial;
}

TEST(Journal, WriteThroughThenLoadRoundTrips)
{
    const auto grid = smallGrid();
    const std::string path = tempPath("roundtrip.ajrn");
    SweepRunner runner(journalOptions(path));
    const auto outcomes = runner.runOutcomes(grid);

    const LoadedJournal loaded = loadJournal(path);
    EXPECT_EQ(loaded.fingerprint,
              gridFingerprint(grid, BASE_SEED));
    EXPECT_EQ(loaded.jobs, grid.size());
    EXPECT_FALSE(loaded.dropped_tail);
    ASSERT_EQ(loaded.records.size(), grid.size());

    std::vector<bool> seen(grid.size(), false);
    for (const JournalRecord &rec : loaded.records) {
        const auto i = static_cast<std::size_t>(rec.job_index);
        ASSERT_LT(i, grid.size());
        seen[i] = true;
        EXPECT_EQ(rec.machine_hash, machineHash(grid[i].machine));
        EXPECT_EQ(rec.seed,
                  deriveJobSeed(BASE_SEED,
                                machineHash(grid[i].machine),
                                grid[i].profile.name));
        ASSERT_TRUE(rec.outcome.ok);
        expectRunEq(rec.outcome.result, outcomes[i].result);
    }
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_TRUE(seen[i]) << "job " << i << " never journaled";
}

TEST(Journal, ResumeReplaysBitIdenticallyAtAnyWorkerCount)
{
    const auto grid = smallGrid();
    const auto ref = reference(grid);

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const std::string path = partialJournal(
            grid, 3, "resume-w" + std::to_string(workers) + ".ajrn");

        SweepRunner runner(
            journalOptions(path, /*resume=*/true, workers));
        const auto outcomes = runner.runOutcomes(grid);

        ASSERT_EQ(outcomes.size(), grid.size());
        std::size_t resumed = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i));
            ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
            expectRunEq(outcomes[i].result, ref[i].result);
            resumed += outcomes[i].resumed ? 1 : 0;
        }
        EXPECT_EQ(resumed, 3u);
        EXPECT_EQ(runner.report().resumed_jobs, 3u);
        EXPECT_EQ(runner.report().ok_jobs, grid.size());
        EXPECT_NE(runner.report().summary().find("resumed 3"),
                  std::string::npos)
            << runner.report().summary();

        // The journal is now complete: every job replays.
        SweepRunner again(
            journalOptions(path, /*resume=*/true, workers));
        const auto all = again.runOutcomes(grid);
        for (const auto &out : all)
            EXPECT_TRUE(out.ok && out.resumed);
    }
}

TEST(Journal, FingerprintMismatchRefusesToResume)
{
    const auto grid = smallGrid();
    const std::string path = tempPath("mismatch.ajrn");
    SweepRunner writer(journalOptions(path));
    writer.runOutcomes(grid);

    // Same journal, different instruction budget: a different
    // experiment, so its results must not replay.
    auto other = grid;
    for (auto &job : other)
        job.instructions = N * 2;
    SweepRunner resumer(journalOptions(path, /*resume=*/true));
    try {
        resumer.runOutcomes(other);
        FAIL() << "fingerprint mismatch not detected";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
        EXPECT_NE(std::string(e.what()).find("different grid"),
                  std::string::npos);
    }
}

TEST(Journal, TornTailIsDroppedAndJobReruns)
{
    const auto grid = smallGrid();
    const auto ref = reference(grid);
    const std::string path = tempPath("torn.ajrn");
    SweepRunner writer(journalOptions(path));
    writer.runOutcomes(grid);

    // Tear the final record as a killed writer would.
    fs::resize_file(path, fs::file_size(path) - 7);
    const LoadedJournal loaded = loadJournal(path);
    EXPECT_TRUE(loaded.dropped_tail);
    EXPECT_EQ(loaded.records.size(), grid.size() - 1);

    SweepRunner resumer(journalOptions(path, /*resume=*/true));
    const auto outcomes = resumer.runOutcomes(grid);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        expectRunEq(outcomes[i].result, ref[i].result);
    }
    EXPECT_EQ(resumer.report().resumed_jobs, grid.size() - 1);

    // The resume truncated the fragment and appended the re-run: the
    // file must load cleanly and completely now.
    const LoadedJournal healed = loadJournal(path);
    EXPECT_FALSE(healed.dropped_tail);
    EXPECT_EQ(healed.records.size(), grid.size());
}

TEST(Journal, MidFileCorruptionRaisesBadJournal)
{
    const auto grid = smallGrid();
    const std::string path = tempPath("midfile.ajrn");
    SweepRunner writer(journalOptions(path));
    writer.runOutcomes(grid);

    // Flip a byte in the first job record's payload — a complete
    // record nowhere near the appendable tail, so the CRC must
    // condemn the whole file rather than drop a torn fragment.
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        ASSERT_TRUE(f.good());
        f.seekg(48);
        char c = 0;
        f.read(&c, 1);
        c = static_cast<char>(c ^ 0x10);
        f.seekp(48);
        f.write(&c, 1);
    }
    bool caught = false;
    try {
        loadJournal(path);
    } catch (const util::SimError &e) {
        caught = e.code() == SimErrorCode::BadJournal;
    }
    EXPECT_TRUE(caught);
}

TEST(Journal, ResumeWithoutExistingFileRunsFresh)
{
    const auto grid = smallGrid();
    const auto ref = reference(grid);
    const std::string path = tempPath("fresh-resume.ajrn");
    fs::remove(path); // a leftover from a prior run is not "missing"
    SweepRunner runner(journalOptions(path, /*resume=*/true));
    const auto outcomes = runner.runOutcomes(grid);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok);
        EXPECT_FALSE(outcomes[i].resumed);
        expectRunEq(outcomes[i].result, ref[i].result);
    }
    EXPECT_EQ(runner.report().resumed_jobs, 0u);
    EXPECT_EQ(loadJournal(path).records.size(), grid.size());
}

TEST(Journal, CorruptionFuzzNeverCrashesLoad)
{
    const auto grid = smallGrid();
    const std::string pristine = tempPath("fuzz.ajrn");
    SweepRunner writer(journalOptions(pristine));
    writer.runOutcomes(grid);

    for (std::uint64_t seed = 0; seed < 48; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string victim = tempPath("fuzz-one.ajrn");
        fs::copy_file(pristine, victim,
                      fs::copy_options::overwrite_existing);
        const auto fault = fi::anyJournalFault(seed);
        fi::corruptJournalFile(victim, fault, seed);

        // Either classified as BadJournal, or loaded with at most a
        // dropped tail and never more records than the grid — any
        // crash, hang, or phantom record is a failure. (A flip in
        // the last record's length field may legally read as a torn
        // tail; the CRC still guards every payload bit.)
        try {
            const LoadedJournal loaded = loadJournal(victim);
            EXPECT_LE(loaded.records.size(), grid.size());
            for (const auto &rec : loaded.records)
                EXPECT_LT(rec.job_index, grid.size());
        } catch (const util::SimError &e) {
            EXPECT_EQ(e.code(), SimErrorCode::BadJournal)
                << e.what();
        }
    }
}

TEST(Journal, MissingFileThrowsBadJournal)
{
    try {
        loadJournal(tempPath("never-written.ajrn"));
        FAIL() << "missing journal not detected";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadJournal);
    }
}

} // namespace
