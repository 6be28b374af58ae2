/**
 * @file
 * Golden-stats regression suite.
 *
 * Records the full per-run statistics (cycles, per-cause stall
 * breakdown, memory-system counters, CPI) of the three Table 1
 * models on a fixed 4-benchmark mini-suite and compares them against
 * the checked-in snapshot in tests/golden/golden_stats.txt. A future
 * performance PR that changes simulated behaviour — even by one cycle
 * — fails here instead of silently shifting every reported number.
 *
 * Regenerate intentionally with:
 *
 *     AURORA_UPDATE_GOLDEN=1 ./test_golden_stats
 *
 * and commit the diff together with an explanation of the behaviour
 * change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

/** Fixed budget: small enough for test-suite turnaround. */
constexpr Count N = 40000;

/** Mini-suite: two cache-friendly, one pointer-heavy, one FP. */
std::vector<trace::WorkloadProfile>
miniSuite()
{
    return {trace::espresso(), trace::compress(), trace::li(),
            trace::nasa7()};
}

std::string
goldenPath()
{
    return std::string(AURORA_GOLDEN_DIR) + "/golden_stats.txt";
}

/** One stable, diff-friendly line per run. Integers are exact. */
std::string
formatRun(const RunResult &r)
{
    std::ostringstream os;
    os << "model=" << r.model << " bench=" << r.benchmark
       << " insts=" << r.instructions << " cycles=" << r.cycles
       << " issuing=" << r.issuing_cycles << " tail=" << r.tail_cycles;
    static constexpr const char *stall_keys[] = {
        "stall_icache", "stall_load", "stall_lsu", "stall_rob",
        "stall_fpq"};
    static_assert(std::size(stall_keys) == NUM_STALL_CAUSES);
    for (std::size_t c = 0; c < NUM_STALL_CAUSES; ++c)
        os << " " << stall_keys[c] << "=" << r.stalls[c];
    os << " stores=" << r.stores
       << " store_txn=" << r.store_transactions
       << " fp_dispatched=" << r.fp_dispatched
       << " cpi=" << formatFixed(r.cpi(), 6);
    return os.str();
}

std::vector<std::string>
computeLines()
{
    // The whole (model x benchmark) grid in one sweep, model-major.
    std::vector<harness::SweepJob> grid;
    for (const auto &machine : studyModels())
        for (auto &job : harness::suiteJobs(machine, miniSuite(), N))
            grid.push_back(std::move(job));
    std::vector<std::string> lines;
    for (const auto &run : harness::SweepRunner().run(grid))
        lines.push_back(formatRun(run));
    return lines;
}

TEST(GoldenStats, MatchesCheckedInSnapshot)
{
    const auto lines = computeLines();

    if (const char *update = std::getenv("AURORA_UPDATE_GOLDEN");
        update && std::string(update) == "1") {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << "# golden per-run statistics: 3 Table 1 models x "
               "4-benchmark mini-suite, "
            << N << " insts/run\n"
            << "# regenerate: AURORA_UPDATE_GOLDEN=1 "
               "./test_golden_stats\n";
        for (const auto &line : lines)
            out << line << "\n";
        GTEST_SKIP() << "golden snapshot regenerated at "
                     << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden snapshot " << goldenPath()
                    << " — run with AURORA_UPDATE_GOLDEN=1 to create";
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            golden.push_back(line);

    ASSERT_EQ(golden.size(), lines.size())
        << "run-count mismatch vs snapshot";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i], golden[i])
            << "simulated behaviour changed at run " << i
            << " — if intentional, regenerate with "
               "AURORA_UPDATE_GOLDEN=1 and justify in the PR";
    }
}

/** The snapshot itself must be deterministic run-to-run. */
TEST(GoldenStats, ComputationIsReproducible)
{
    EXPECT_EQ(computeLines(), computeLines());
}

} // namespace
