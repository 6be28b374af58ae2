/**
 * @file
 * Shared helpers for the table/figure regeneration harness.
 *
 * Every bench binary prints the rows of one table or the data series
 * of one figure from the paper's evaluation section. Run lengths are
 * sized for seconds-scale turnaround; set AURORA_BENCH_INSTS to run
 * longer (statistics converge further but shapes do not change).
 * Every simulating bench runs its whole grid in one Grid: one sweep
 * across AURORA_JOBS worker threads (default: all hardware threads)
 * that synthesizes each trace once, then a sweep summary footer.
 */

#ifndef AURORA_BENCH_COMMON_HH
#define AURORA_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.hh"
#include "harness/sweep.hh"
#include "trace/spec_profiles.hh"
#include "util/env.hh"
#include "util/table.hh"

namespace aurora::bench
{

/**
 * Instructions per (model, benchmark) run. A malformed or zero
 * AURORA_BENCH_INSTS falls back to the default with a warning —
 * strtoull's silent 0 would have turned every bench into a no-op.
 */
inline Count
runInsts()
{
    return envCount("AURORA_BENCH_INSTS", 200'000);
}

/** Print a standard bench header. */
inline void
banner(const std::string &what)
{
    std::cout << "==== Aurora III reproduction: " << what << " ====\n"
              << "(instructions per run: " << runInsts()
              << ", workers: " << harness::SweepRunner().workers()
              << ")\n\n";
}

/**
 * A bench's whole (machine × profile) grid: add() every suite slice
 * the tables need, run() them all in one SweepRunner call, then print
 * from the slices run() returns.
 */
class Grid
{
  public:
    /** One add()ed slice: its index in run()'s result. */
    using Handle = std::size_t;

    /** Queue @p machine over every profile of @p profiles. */
    Handle
    add(const core::MachineConfig &machine,
        const std::vector<trace::WorkloadProfile> &profiles,
        Count instructions = runInsts())
    {
        for (harness::SweepJob &job :
             harness::suiteJobs(machine, profiles, instructions))
            jobs_.push_back(std::move(job));
        suites_.push_back(
            {machine, std::vector<core::RunResult>(profiles.size())});
        return suites_.size() - 1;
    }

    /** Run every queued job (once, after the last add()); returns
     *  every slice in add() order, each in profile order. */
    const std::vector<core::SuiteResult> &
    run()
    {
        auto results = runner_.run(jobs_);
        std::size_t next = 0;
        for (core::SuiteResult &s : suites_)
            for (core::RunResult &r : s.runs)
                r = std::move(results[next++]);
        return suites_;
    }

    /** The runner, for work that is not a SweepJob (its report
     *  feeds the same footer). */
    harness::SweepRunner &runner() { return runner_; }

    /** Print the sweep timing/throughput footer. */
    void
    footer() const
    {
        std::cout << "\n" << runner_.report().summary() << "\n";
    }

  private:
    harness::SweepRunner runner_;
    std::vector<harness::SweepJob> jobs_;
    std::vector<core::SuiteResult> suites_;
};

} // namespace aurora::bench

#endif // AURORA_BENCH_COMMON_HH
