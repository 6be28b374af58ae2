/**
 * @file
 * SPEC92 benchmark profiles.
 *
 * One WorkloadProfile per benchmark used in the study: the six SPECint92
 * programs of Tables 3-5 and the nine SPECfp92 programs of Table 6.
 * Parameters are set from the programs' well-documented structural
 * behaviour (code footprint, pointer-chasing vs. streaming data, store
 * locality, FP dependence chains) and calibrated so the baseline model
 * reproduces the paper's aggregate cache statistics; see DESIGN.md §2.1.
 */

#ifndef AURORA_TRACE_SPEC_PROFILES_HH
#define AURORA_TRACE_SPEC_PROFILES_HH

#include <string>
#include <vector>

#include "workload_profile.hh"

namespace aurora::trace
{

/// @name SPECint92 profiles
/// @{
WorkloadProfile espresso(); ///< PLA minimizer: set ops over bit matrices
WorkloadProfile li();       ///< XLISP interpreter: recursion, GC, lists
WorkloadProfile eqntott();  ///< truth tables: tight loops, random bits
WorkloadProfile compress(); ///< LZW: hash probes + sequential input
WorkloadProfile sc();       ///< spreadsheet: row/column streaming
WorkloadProfile gcc();      ///< compiler: huge code, mixed data
/// @}

/// @name SPECfp92 profiles
/// @{
WorkloadProfile alvinn();   ///< back-propagation: serial accumulations
WorkloadProfile doduc();    ///< Monte Carlo reactor kernel: mixed FP
WorkloadProfile ear();      ///< ear model: FFT-like add/mul parallelism
WorkloadProfile hydro2d();  ///< Navier-Stokes: long vector loops
WorkloadProfile mdljdp2();  ///< molecular dynamics: pairwise forces
WorkloadProfile nasa7();    ///< matrix kernels: abundant FP ILP
WorkloadProfile ora();      ///< ray tracing: divide/sqrt bound
WorkloadProfile spice2g6(); ///< circuit simulation: mostly integer
WorkloadProfile su2cor();   ///< quantum physics: vector loops
/// @}

/** The six integer benchmarks, in the paper's table order. */
std::vector<WorkloadProfile> integerSuite();

/** The nine floating point benchmarks, in Table 6 order. */
std::vector<WorkloadProfile> floatSuite();

/**
 * Look up any benchmark by name. Throws util::SimError (BadConfig)
 * listing the known profile names when @p name matches none.
 */
WorkloadProfile profileByName(const std::string &name);

/**
 * Resolve a suite name: "int" (integerSuite), "fp" (floatSuite),
 * "all" (both, integer first), or one benchmark's name
 * (profileByName, which throws on an unknown one).
 */
std::vector<WorkloadProfile> suiteByName(const std::string &name);

} // namespace aurora::trace

#endif // AURORA_TRACE_SPEC_PROFILES_HH
