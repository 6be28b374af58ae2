#include "spec_profiles.hh"

#include "util/sim_error.hh"

namespace aurora::trace
{

namespace
{

/** Common integer-suite defaults; members then specialized per bench. */
WorkloadProfile
intBase(const std::string &name, std::uint64_t seed)
{
    WorkloadProfile p;
    p.name = name;
    p.seed = seed;
    p.floating_point = false;
    return p;
}

/** Common FP-suite defaults. */
WorkloadProfile
fpBase(const std::string &name, std::uint64_t seed)
{
    WorkloadProfile p;
    p.name = name;
    p.seed = seed;
    p.floating_point = true;
    p.frac_load = 0.06;
    p.frac_store = 0.03;
    p.frac_fp_arith = 0.42;
    p.frac_fp_load = 0.09;
    p.frac_fp_store = 0.045;
    p.hot_code_bytes = 1600;
    p.cold_code_bytes = 48 * 1024;
    p.num_hot_loops = 5;
    p.mean_trips = 60.0;
    p.hot_fraction = 0.97;
    p.cold_run_len = 12.0;
    p.hot_data_bytes = 4 * 1024;
    p.total_data_bytes = 4 * 1024 * 1024;
    p.seq_fraction = 0.55;
    p.chase_fraction = 0.04;
    p.chase_hot_frac = 0.97;
    p.stack_fraction = 0.35;
    p.load_use_frac = 0.35;
    p.store_rewrite_frac = 0.25;
    p.store_stack_frac = 0.30;
    p.store_burst_frac = 0.40;
    p.fp_chain_frac = 0.35;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// SPECint92
// ---------------------------------------------------------------------

WorkloadProfile
espresso()
{
    // PLA minimizer: moderate loops over cube lists; data access is a
    // blend of pointer-following and bit-matrix scans.
    WorkloadProfile p = intBase("espresso", 0xe5a1);
    p.frac_load = 0.22;
    p.frac_store = 0.08;
    p.hot_code_bytes = 3000;
    p.cold_code_bytes = 96 * 1024;
    p.num_hot_loops = 10;
    p.mean_trips = 10.0;
    p.hot_fraction = 0.93;
    p.cold_run_len = 10.0;
    p.hot_data_bytes = 6 * 1024;
    p.total_data_bytes = 512 * 1024;
    p.seq_fraction = 0.08;
    p.chase_fraction = 0.45;
    p.stack_fraction = 0.42;
    p.store_rewrite_frac = 0.35;
    p.store_burst_frac = 0.22;
    p.chase_hot_frac = 0.965;
    return p;
}

WorkloadProfile
li()
{
    // XLISP interpreter: deep recursion, cons-cell chasing, heavy
    // stack traffic, short sequential runs between calls.
    WorkloadProfile p = intBase("li", 0x11b2);
    p.frac_load = 0.26;
    p.frac_store = 0.14;
    p.hot_code_bytes = 2200;
    p.cold_code_bytes = 48 * 1024;
    p.num_hot_loops = 8;
    p.mean_trips = 7.0;
    p.hot_fraction = 0.88;
    p.cold_run_len = 7.0;
    p.cold_target_reuse = 0.65;
    p.hot_data_bytes = 4 * 1024;
    p.total_data_bytes = 256 * 1024;
    p.seq_fraction = 0.08;
    p.chase_fraction = 0.48;
    p.stack_fraction = 0.50;
    p.store_rewrite_frac = 0.45;
    p.store_burst_frac = 0.40;
    p.chase_hot_frac = 0.97;
    return p;
}

WorkloadProfile
eqntott()
{
    // Truth-table generator: dominated by a tight comparison loop
    // sweeping long bit vectors; code misses are rare but perfectly
    // sequential, data is nearly random over a large array.
    WorkloadProfile p = intBase("eqntott", 0xe077);
    p.frac_load = 0.30;
    p.frac_store = 0.04;
    p.hot_code_bytes = 1200;
    p.cold_code_bytes = 24 * 1024;
    p.num_hot_loops = 4;
    p.mean_trips = 40.0;
    p.hot_fraction = 0.975;
    p.cold_run_len = 26.0;
    p.inline_branch_frac = 0.14;
    p.hot_data_bytes = 4 * 1024;
    p.total_data_bytes = 2 * 1024 * 1024;
    p.seq_fraction = 0.05;
    p.chase_fraction = 0.72;
    p.stack_fraction = 0.28;
    p.store_rewrite_frac = 0.50;
    p.chase_hot_frac = 0.93;
    p.chase_hot_bytes = 6 * 1024;
    p.store_burst_frac = 0.35;
    return p;
}

WorkloadProfile
compress()
{
    // LZW compressor: sequential input/output streams feeding a
    // randomly probed hash table.
    WorkloadProfile p = intBase("compress", 0xc03e);
    p.frac_load = 0.20;
    p.frac_store = 0.12;
    p.hot_code_bytes = 1600;
    p.cold_code_bytes = 32 * 1024;
    p.num_hot_loops = 6;
    p.mean_trips = 14.0;
    p.hot_fraction = 0.95;
    p.cold_run_len = 12.0;
    p.hot_data_bytes = 4 * 1024;
    p.total_data_bytes = 1024 * 1024;
    p.seq_fraction = 0.12;
    p.chase_fraction = 0.42;
    p.stack_fraction = 0.38;
    p.store_rewrite_frac = 0.30;
    p.store_burst_frac = 0.35;
    p.chase_hot_frac = 0.96;
    return p;
}

WorkloadProfile
sc()
{
    // Spreadsheet: recalculation sweeps rows/columns sequentially and
    // rewrites cell values — the best data-prefetch and write-cache
    // candidate of the integer suite.
    WorkloadProfile p = intBase("sc", 0x5c5c);
    p.frac_load = 0.24;
    p.frac_store = 0.12;
    p.hot_code_bytes = 2800;
    p.cold_code_bytes = 80 * 1024;
    p.num_hot_loops = 10;
    p.mean_trips = 9.0;
    p.hot_fraction = 0.90;
    p.cold_run_len = 9.0;
    p.hot_data_bytes = 8 * 1024;
    p.total_data_bytes = 384 * 1024;
    p.seq_fraction = 0.25;
    p.chase_fraction = 0.14;
    p.stack_fraction = 0.40;
    p.store_rewrite_frac = 0.40;
    p.store_burst_frac = 0.40;
    p.chase_hot_frac = 0.97;
    return p;
}

WorkloadProfile
gcc()
{
    // Compiler: the largest code footprint in the suite, moderate
    // loops, tree/RTL chasing plus symbol-table streaming.
    WorkloadProfile p = intBase("gcc", 0x6cc0);
    p.frac_load = 0.23;
    p.frac_store = 0.13;
    p.hot_code_bytes = 4200;
    p.cold_code_bytes = 200 * 1024;
    p.num_hot_loops = 12;
    p.mean_trips = 7.0;
    p.hot_fraction = 0.80;
    p.cold_run_len = 10.0;
    p.cold_target_reuse = 0.50;
    p.hot_data_bytes = 8 * 1024;
    p.total_data_bytes = 768 * 1024;
    p.seq_fraction = 0.08;
    p.chase_fraction = 0.40;
    p.stack_fraction = 0.45;
    p.store_rewrite_frac = 0.42;
    p.store_burst_frac = 0.42;
    p.chase_hot_frac = 0.96;
    return p;
}

// ---------------------------------------------------------------------
// SPECfp92
// ---------------------------------------------------------------------

WorkloadProfile
alvinn()
{
    // Back-propagation training: serial accumulation chains keep the
    // FPU latency-bound no matter the issue policy.
    WorkloadProfile p = fpBase("alvinn", 0xa111);
    p.frac_fp_arith = 0.44;
    p.fp_add_w = 3.0;
    p.fp_mul_w = 2.0;
    p.fp_div_w = 0.01;
    p.fp_cvt_w = 0.05;
    p.fp_chain_frac = 0.85;
    p.seq_fraction = 0.75;
    p.chase_fraction = 0.03;
    p.total_data_bytes = 2 * 1024 * 1024;
    return p;
}

WorkloadProfile
doduc()
{
    // Monte Carlo reactor kernel: branchy FP with moderate chains.
    WorkloadProfile p = fpBase("doduc", 0xd0d0);
    p.frac_fp_arith = 0.38;
    p.fp_add_w = 2.0;
    p.fp_mul_w = 2.0;
    p.fp_div_w = 0.12;
    p.fp_cvt_w = 0.10;
    p.fp_chain_frac = 0.45;
    p.hot_code_bytes = 2600;
    p.num_hot_loops = 8;
    p.mean_trips = 14.0;
    p.hot_fraction = 0.90;
    p.seq_fraction = 0.45;
    p.chase_fraction = 0.15;
    return p;
}

WorkloadProfile
ear()
{
    // Human-ear model: FFT-style butterflies with good FP ILP.
    WorkloadProfile p = fpBase("ear", 0xea12);
    p.frac_fp_arith = 0.46;
    p.fp_add_w = 2.5;
    p.fp_mul_w = 2.5;
    p.fp_div_w = 0.02;
    p.fp_cvt_w = 0.04;
    p.fp_chain_frac = 0.25;
    p.seq_fraction = 0.70;
    return p;
}

WorkloadProfile
hydro2d()
{
    // 2-D Navier-Stokes: long vector loops over grids.
    WorkloadProfile p = fpBase("hydro2d", 0x42d0);
    p.frac_fp_arith = 0.44;
    p.fp_add_w = 2.2;
    p.fp_mul_w = 2.0;
    p.fp_div_w = 0.06;
    p.fp_cvt_w = 0.03;
    p.fp_chain_frac = 0.22;
    p.mean_trips = 80.0;
    p.seq_fraction = 0.78;
    p.chase_fraction = 0.04;
    p.total_data_bytes = 8 * 1024 * 1024;
    return p;
}

WorkloadProfile
mdljdp2()
{
    // Molecular dynamics: pairwise force loops, independent updates.
    WorkloadProfile p = fpBase("mdljdp2", 0x3d1d);
    p.frac_fp_arith = 0.45;
    p.fp_add_w = 2.2;
    p.fp_mul_w = 2.4;
    p.fp_div_w = 0.08;
    p.fp_cvt_w = 0.03;
    p.fp_chain_frac = 0.22;
    p.seq_fraction = 0.55;
    p.chase_fraction = 0.12;
    return p;
}

WorkloadProfile
nasa7()
{
    // Seven matrix kernels: the most abundant FP parallelism in the
    // suite — dual issue gains the most here.
    WorkloadProfile p = fpBase("nasa7", 0x7a5a);
    p.frac_fp_arith = 0.48;
    p.fp_add_w = 2.0;
    p.fp_mul_w = 2.6;
    p.fp_div_w = 0.03;
    p.fp_cvt_w = 0.03;
    p.fp_chain_frac = 0.12;
    p.mean_trips = 96.0;
    p.hot_fraction = 0.97;
    p.seq_fraction = 0.80;
    p.chase_fraction = 0.03;
    p.total_data_bytes = 8 * 1024 * 1024;
    return p;
}

WorkloadProfile
ora()
{
    // Ray tracing through optical surfaces: divide/sqrt dominated
    // dependence chains; issue policy helps little.
    WorkloadProfile p = fpBase("ora", 0x03a0);
    p.frac_fp_arith = 0.42;
    p.fp_add_w = 1.6;
    p.fp_mul_w = 1.8;
    p.fp_div_w = 0.50;
    p.fp_cvt_w = 0.05;
    p.fp_chain_frac = 0.70;
    p.frac_fp_load = 0.05;
    p.frac_fp_store = 0.02;
    p.total_data_bytes = 256 * 1024;
    p.seq_fraction = 0.40;
    return p;
}

WorkloadProfile
spice2g6()
{
    // Circuit simulator: sparse-matrix pointer chasing; mostly
    // integer work, so FP issue policy barely matters.
    WorkloadProfile p = fpBase("spice2g6", 0x591c);
    p.frac_load = 0.20;
    p.frac_store = 0.07;
    p.frac_fp_arith = 0.14;
    p.frac_fp_load = 0.06;
    p.frac_fp_store = 0.02;
    p.fp_chain_frac = 0.45;
    p.hot_code_bytes = 2400;
    p.num_hot_loops = 8;
    p.mean_trips = 12.0;
    p.hot_fraction = 0.88;
    p.seq_fraction = 0.25;
    p.chase_fraction = 0.45;
    p.stack_fraction = 0.40;
    p.total_data_bytes = 1024 * 1024;
    return p;
}

WorkloadProfile
su2cor()
{
    // Quark-gluon physics: vectorizable loops with medium chains.
    WorkloadProfile p = fpBase("su2cor", 0x52c0);
    p.frac_fp_arith = 0.44;
    p.fp_add_w = 2.0;
    p.fp_mul_w = 2.2;
    p.fp_div_w = 0.07;
    p.fp_cvt_w = 0.04;
    p.fp_chain_frac = 0.38;
    p.mean_trips = 64.0;
    p.seq_fraction = 0.70;
    p.total_data_bytes = 6 * 1024 * 1024;
    return p;
}

std::vector<WorkloadProfile>
integerSuite()
{
    return {espresso(), li(), eqntott(), compress(), sc(), gcc()};
}

std::vector<WorkloadProfile>
floatSuite()
{
    return {alvinn(), doduc(), ear(), hydro2d(), mdljdp2(),
            nasa7(), ora(), spice2g6(), su2cor()};
}

WorkloadProfile
profileByName(const std::string &name)
{
    for (const auto &p : integerSuite())
        if (p.name == name)
            return p;
    for (const auto &p : floatSuite())
        if (p.name == name)
            return p;
    std::string known;
    for (const auto &p : integerSuite())
        known += p.name + " ";
    for (const auto &p : floatSuite())
        known += p.name + " ";
    if (!known.empty())
        known.pop_back();
    util::raiseError(util::SimErrorCode::BadConfig,
                     "unknown benchmark profile '", name,
                     "' (known profiles: ", known, ")");
}

std::vector<WorkloadProfile>
suiteByName(const std::string &name)
{
    if (name == "int")
        return integerSuite();
    if (name == "fp")
        return floatSuite();
    if (name == "all") {
        std::vector<WorkloadProfile> suite = integerSuite();
        for (const WorkloadProfile &p : floatSuite())
            suite.push_back(p);
        return suite;
    }
    return {profileByName(name)};
}

} // namespace aurora::trace
