/**
 * @file
 * Unit tests for report formatting.
 */

#include <gtest/gtest.h>

#include "core/report.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;

/** @p profiles on @p m for 20k insts each, through the sweep engine. */
SuiteResult
suiteOf(const MachineConfig &m,
        const std::vector<trace::WorkloadProfile> &profiles)
{
    return {m, harness::SweepRunner().run(
                   harness::suiteJobs(m, profiles, 20000))};
}

SuiteResult
tinySuite()
{
    return suiteOf(baselineModel(), {trace::espresso(), trace::compress()});
}

TEST(Report, RunReportMentionsEverything)
{
    const auto r = simulate(baselineModel(), trace::li(), 20000);
    const std::string text = runReport(r);
    for (const char *needle :
         {"baseline", "li", "CPI", "I-cache", "D-cache",
          "write-cache", "ROB occupancy", "MSHR occupancy", "RBE",
          "ICache=", "Load=", "LSU-Busy="})
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST(Report, SuiteTableHasOneRowPerBenchmark)
{
    const auto s = tinySuite();
    const Table t = suiteTable(s);
    EXPECT_EQ(t.numRows(), 2u);
    const std::string text = t.ascii();
    EXPECT_NE(text.find("espresso"), std::string::npos);
    EXPECT_NE(text.find("compress"), std::string::npos);
}

TEST(Report, StallTableCoversEveryCause)
{
    const auto s = tinySuite();
    const std::string text = stallTable(s).ascii();
    for (std::size_t c = 0; c < NUM_STALL_CAUSES; ++c)
        EXPECT_NE(text.find(std::string(
                      stallCauseName(static_cast<StallCause>(c)))),
                  std::string::npos);
}

TEST(Report, ComparisonTableOrdersMachines)
{
    std::vector<SuiteResult> suites;
    for (const auto &m : studyModels())
        suites.push_back(suiteOf(m, {trace::espresso()}));
    const Table t = comparisonTable(suites);
    EXPECT_EQ(t.numRows(), 3u);
    const std::string text = t.ascii();
    EXPECT_LT(text.find("small"), text.find("baseline"));
    EXPECT_LT(text.find("baseline"), text.find("large"));
}

TEST(Report, ScatterCsvIsParseable)
{
    std::vector<SuiteResult> suites;
    suites.push_back(suiteOf(baselineModel(), {trace::espresso()}));
    const std::string csv = scatterCsv(suites);
    EXPECT_EQ(csv.find("machine,cost_rbe,cpi_avg\n"), 0u);
    EXPECT_NE(csv.find("baseline,"), std::string::npos);
}

} // namespace
