/**
 * @file
 * Parameter set describing a synthetic workload.
 *
 * Each SPEC92 benchmark in the study is modelled by one profile. The
 * parameters control the structural properties the Aurora III
 * mechanisms are sensitive to: code footprint and loop behaviour
 * (I-cache, I-stream buffers, branch folding), data access patterns
 * (D-cache, D-stream buffers, MSHR overlap), store locality (write
 * cache), and dependency density (dual issue, load-use stalls, FP
 * decoupling). See DESIGN.md §2.1 for why this substitution preserves
 * the study's behaviour.
 */

#ifndef AURORA_TRACE_WORKLOAD_PROFILE_HH
#define AURORA_TRACE_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>

namespace aurora::trace
{

/** Tunable description of one synthetic benchmark. */
struct WorkloadProfile
{
    /** Benchmark name, e.g. "espresso". */
    std::string name;
    /** True for SPECfp-style workloads (FP ops in hot loops). */
    bool floating_point = false;
    /** Seed for the workload's private random stream. */
    std::uint64_t seed = 1;

    /// @name Instruction mix (fractions of dynamic instructions)
    /// Remaining probability mass is integer ALU work.
    /// @{
    double frac_load = 0.20;     ///< integer loads
    double frac_store = 0.10;    ///< integer stores
    double frac_fp_arith = 0.0;  ///< FP add/mul/div/cvt combined
    double frac_fp_load = 0.0;   ///< FP loads
    double frac_fp_store = 0.0;  ///< FP stores
    /// @}

    /// @name FP arithmetic split (relative weights)
    /// @{
    double fp_add_w = 1.0;
    double fp_mul_w = 1.0;
    double fp_div_w = 0.05;
    double fp_cvt_w = 0.05;
    /// @}

    /// @name Code structure
    /// @{
    /** Combined static footprint of all hot loop bodies, bytes. */
    std::uint32_t hot_code_bytes = 1536;
    /** Cold (non-loop) code region size, bytes. */
    std::uint32_t cold_code_bytes = 64 * 1024;
    /** Number of distinct hot loops. */
    int num_hot_loops = 6;
    /** Mean loop trip count per hot episode. */
    double mean_trips = 24.0;
    /** Fraction of dynamic instructions spent in hot loops. */
    double hot_fraction = 0.92;
    /** Mean sequential run length (instructions) in cold code. */
    double cold_run_len = 10.0;
    /** Probability a cold control transfer reuses a recent target. */
    double cold_target_reuse = 0.55;
    /** Probability the branch delay slot is a NOP. */
    double delay_nop_frac = 0.35;
    /** Probability an in-body branch is a not-taken test. */
    double inline_branch_frac = 0.06;
    /// @}

    /// @name Data structure
    /// @{
    /** Hot stack/global region size, bytes (high reuse). */
    std::uint32_t hot_data_bytes = 4 * 1024;
    /** Heap region size, bytes (streams / strides / chases). */
    std::uint32_t total_data_bytes = 1024 * 1024;
    /** Fraction of heap references that stream sequentially. */
    double seq_fraction = 0.30;
    /** Fraction of heap references that pointer-chase randomly. */
    double chase_fraction = 0.25;
    /** Fraction of all data references that hit the hot region. */
    double stack_fraction = 0.40;
    /**
     * Fraction of *store* slots bound to the hot stack region
     * (results land in locals/globals far more often than reads do).
     */
    double store_stack_frac = 0.60;
    /** Mean stride for strided array slots, bytes. */
    double stride_bytes = 64.0;
    /** Zipf exponent for hot-region reuse skew. */
    double zipf_s = 1.05;
    /**
     * Pointer-chase references are two-level: with probability
     * chase_hot_frac they revisit a small hot node set at the front
     * of the heap (recently allocated/touched structures), otherwise
     * they strike uniformly across the whole region. The cold strikes
     * are the benchmark's irreducible random-miss source.
     */
    double chase_hot_frac = 0.93;
    /** Size of the hot chase node set, bytes. */
    std::uint32_t chase_hot_bytes = 6 * 1024;
    /**
     * Stores draw from a region this many times smaller than loads
     * (loop indices, accumulators and output buffers are fewer than
     * the structures read) — the write-cache locality knob.
     */
    unsigned store_concentration = 16;
    /** Sequential stream window before re-basing, bytes. */
    std::uint32_t stream_window_bytes = 32 * 1024;
    /** Strided slots wrap within a region of this size, bytes. */
    std::uint32_t stride_region_bytes = 4 * 1024;
    /// @}

    /// @name Dependency density
    /// @{
    /** P(instruction sources the immediately preceding result). */
    double imm_dep_frac = 0.22;
    /** P(an instruction soon after a load consumes its result). */
    double load_use_frac = 0.45;
    /**
     * P(a load re-reads a recently stored address) — spill/reload
     * and flag-check idioms; these are the loads the write cache
     * forwards to.
     */
    double load_raw_frac = 0.20;
    /** P(FP op sources the previous FP op's result). */
    double fp_chain_frac = 0.35;
    /**
     * P(FP op consumes a recently loaded FP value) — vector kernels
     * load operands and use them immediately, which is what makes
     * the FPU burst-drain after load data arrives (and what dual
     * issue exploits).
     */
    double fp_load_use_frac = 0.50;
    /**
     * Mean length of consecutive FP arithmetic runs. Unrolled vector
     * kernels emit dense stretches of FP operations; these bursts
     * arrive at the FPU two per cycle and are what a second FPU
     * issue slot exists to absorb. 1.0 disables clustering.
     */
    double fp_run_len = 6.0;
    /// @}

    /// @name Store locality
    /// @{
    /** P(store rewrites one of the recently stored addresses). */
    double store_rewrite_frac = 0.45;
    /**
     * P(store continues a burst at the next word after the previous
     * store) — multi-field structure writes and buffer fills, the
     * pattern the coalescing write cache exists for.
     */
    double store_burst_frac = 0.30;
    /// @}

    /** Emit 8-byte FP accesses instead of paired 4-byte halves. */
    bool double_word_mem = false;

    /** Same knobs, seed and name: the same synthesized trace. */
    bool operator==(const WorkloadProfile &) const = default;
};

} // namespace aurora::trace

#endif // AURORA_TRACE_WORKLOAD_PROFILE_HH
