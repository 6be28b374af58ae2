/**
 * @file
 * Analytic bound-and-bottleneck performance model.
 *
 * Brute-force simulation answers "what IPC does this configuration
 * reach" at the cost of executing every cycle; this model answers the
 * cheaper question "what IPC can it *not exceed*, and which resource
 * says so" from the configuration and the workload profile alone, in
 * the spirit of Carroll & Lin's queuing-model configurator (PAPERS.md)
 * and as the pruning front end ROADMAP item 4 asks for.
 *
 * Method: every hardware resource the paper sizes (§5) is reduced to
 * a service station with a per-instruction service demand d_r (busy
 * cycles each average instruction imposes on it) and a capacity c_r
 * (service cycles available per machine cycle). Little's law bounds
 * sustained throughput at every station: IPC <= c_r / d_r. The
 * overall prediction is the minimum over stations — the *bottleneck
 * bound* — and the station attaining it is the *binding resource*.
 *
 * The bound is only trustworthy as a bound if every demand estimate
 * is optimistic (never overstates the work): miss-rate terms use
 * conflict-free footprint arguments scaled by an explicit optimism
 * factor, dependency stalls are ignored entirely, and queue-residency
 * terms assume perfect overlap. The calibration harness
 * (`scripts/check.sh model`) holds the model to exactly that
 * contract: predicted bound >= simulated IPC on every fig4/fig9 job,
 * with a ceiling on the mean gap. Host-time cost is measured by
 * bench/perf/run.sh.
 *
 * Everything here is a pure function of (MachineConfig,
 * WorkloadProfile): no clocks, no randomness, no environment reads —
 * `scripts/lint_determinism.sh` enforces this, and repeated calls are
 * bit-identical.
 */

#ifndef AURORA_ANALYZE_MODEL_HH
#define AURORA_ANALYZE_MODEL_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "diagnostic.hh"
#include "trace/workload_profile.hh"

namespace aurora::analyze
{

/**
 * Every service station the bound considers, in stable report order.
 * The order is part of the tool contract (CSV/JSON rows, golden
 * files, tie-breaking of equal bounds) — append, never reorder.
 */
enum class Resource
{
    IssueWidth,   ///< decode/issue slots per cycle (§2.1)
    FetchBw,      ///< I-fetch port incl. I-miss service (§2.2)
    RetireWidth,  ///< in-order retirement slots
    RobOccupancy, ///< IPU reorder buffer entries (Little's law)
    MemPort,      ///< D-cache access port (§2.3)
    MshrPool,     ///< MSHR residency per memory op (§2.3)
    WriteCache,   ///< store insert port + eviction work (§2.4)
    BiuBandwidth, ///< line transfers through the one bus (§2)
    BiuQueue,     ///< outstanding-transaction slots (Little's law)
    FpTransfer,   ///< IPU->FPU issue/transfer policy (§3)
    FpInstQueue,  ///< FP decoupling instruction queue (Fig 9a)
    FpLoadQueue,  ///< FP load data queue (Fig 9b)
    FpStoreQueue, ///< FP store/result queue
    FpRob,        ///< FPU reorder buffer occupancy (Fig 9c)
    FpResultBus,  ///< writeback buses shared by the FP units
    FpAddUnit,    ///< add unit issue slots (latency if unpipelined)
    FpMulUnit,    ///< multiply unit issue slots
    FpDivUnit,    ///< divide unit (iterative: busy `latency` cycles)
    FpCvtUnit,    ///< conversion unit
};

/** Number of Resource enumerators (array extent). */
inline constexpr std::size_t NUM_RESOURCES = 19;

/** Stable short name ("issue", "mshr", "fp_instq", ...). */
const char *resourceName(Resource resource);

/**
 * Per-resource bounds are clamped here instead of reporting infinity
 * for stations the workload never touches (d_r = 0): every number
 * the tool emits stays finite and JSON-representable. The overall
 * IPC bound is always <= issue width, far below the clamp.
 */
inline constexpr double UNBOUNDED_IPC = 1e9;

/** One service station's contribution to the bound. */
struct ResourceDemand
{
    Resource resource = Resource::IssueWidth;
    /** Busy cycles this station owes per average instruction. */
    double demand = 0.0;
    /** Service cycles the station offers per machine cycle. */
    double capacity = 0.0;
    /** c/d, clamped to UNBOUNDED_IPC; 0 when the capacity is 0. */
    double ipc_bound = UNBOUNDED_IPC;
    /** ipc_bound / overall bound (>= 1; 1 for the binding station). */
    double slack = 1.0;
    /** Table 2 area attributed to this station; 0 when unpriced. */
    double rbe = 0.0;
};

/**
 * Optimistic workload-derived rates behind the demands — reported so
 * a human (or docs/model.md) can audit which estimate drives a
 * surprising bound.
 */
struct MixEstimates
{
    double f_load = 0.0;      ///< integer + FP loads, per instruction
    double f_store = 0.0;     ///< integer + FP stores, per instruction
    double f_mem = 0.0;       ///< loads + stores
    double f_fp = 0.0;        ///< FP arithmetic ops
    double icache_mpi = 0.0;  ///< I-cache misses per instruction
    double dcache_mpr = 0.0;  ///< D-cache misses per data reference
    double wc_evict = 0.0;    ///< BIU write transactions per store
    double fp_mean_lat = 0.0; ///< mix-weighted FP unit latency
};

/** The model's verdict for one (machine, profile) pair. */
struct ModelResult
{
    /** min over resources of c_r / d_r — the throughput bound. */
    double ipc_bound = 0.0;
    /** 1 / ipc_bound, clamped to UNBOUNDED_IPC when the bound is 0. */
    double cpi_bound = 0.0;
    /** Station attaining the bound (first in enum order on ties). */
    Resource binding = Resource::IssueWidth;
    /** Every station, in enum order. */
    std::array<ResourceDemand, NUM_RESOURCES> resources{};
    /** The estimates the demands were computed from. */
    MixEstimates mix{};
    /** Priced area: IPU bundle + FPU units and queues. */
    double rbe_total = 0.0;

    /** "bound 1.43 IPC (0.70 CPI), binding resource mshr". */
    std::string summary() const;
};

/**
 * Compute the bottleneck IPC bound of @p machine under @p profile.
 * Pure and total: any configuration is accepted (a zero-capacity
 * station yields a 0 bound rather than a throw) so grid exploration
 * never dies on a degenerate point; run lintConfig() first when
 * error reporting matters.
 */
ModelResult predictBound(const core::MachineConfig &machine,
                         const trace::WorkloadProfile &profile);

/**
 * Total Table 2 area of @p machine (IPU bundle + FPU). Unlike the
 * strict cost::fpuRbe(), unit latencies outside the published price
 * ranges are clamped to the nearest endpoint instead of asserting,
 * so every *valid* configuration (latency 1..255) can be priced
 * during exploration.
 */
double pricedRbe(const core::MachineConfig &machine);

/** Knobs for the advisory diagnostics. */
struct AdviseOptions
{
    /**
     * Emit AUR042 when the mean predicted bound over the profiles
     * falls below this floor. 0 disables the check.
     */
    double min_ipc = 0.0;
    /**
     * Structures whose worst-case (minimum over profiles) slack is at
     * least this factor are flagged AUR041 as over-provisioned.
     */
    double slack_factor = 2.0;
    /**
     * AUR041 only fires for stations priced at or above this many
     * RBE — flagging a 2x-oversized 50-RBE queue is noise next to a
     * 2x-oversized reorder buffer.
     */
    double min_rbe = 100.0;
};

/**
 * Advisory findings for @p machine over @p profiles (all Warning
 * severity — the model advises, it never gates): one AUR040 naming
 * the binding resource per profile (Diagnostic::job = profile index
 * when several profiles are given), AUR041 per over-provisioned
 * priced structure, and AUR042 when the mean bound misses
 * @p options.min_ipc. Deterministic: output order is profile order,
 * then enum order.
 */
std::vector<Diagnostic>
adviseModel(const core::MachineConfig &machine,
            const std::vector<trace::WorkloadProfile> &profiles,
            const AdviseOptions &options = {});

} // namespace aurora::analyze

#endif // AURORA_ANALYZE_MODEL_HH
