/**
 * @file
 * The Aurora III processor model: IFU, IEU issue logic, LSU, reorder
 * buffer, scoreboard and the decoupled FPU, advanced one clock per
 * tick.
 *
 * Issue is in order, up to issue_width per cycle, from the IFU's
 * fetch buffer. Dual issue obeys the §2 constraints: the two
 * instructions must form an aligned EVEN/ODD pair, must not carry a
 * true dependency (the predecoded DI bit), and may contain at most
 * one memory access. Every non-issuing cycle is charged to a single
 * StallCause with the priority order ICache > Load > LSU-Busy >
 * FP-Queue > ROB-Full (matching the paper's observation that load-use
 * waits are charged before reorder-buffer pressure).
 */

#ifndef AURORA_CORE_PROCESSOR_HH
#define AURORA_CORE_PROCESSOR_HH

#include <optional>
#include <string>

#include "fpu/fpu.hh"
#include "util/stats.hh"
#include "ipu/ifu.hh"
#include "ipu/lsu.hh"
#include "ipu/rob.hh"
#include "ipu/scoreboard.hh"
#include "machine_config.hh"
#include "mem/biu.hh"
#include "mem/stream_buffer.hh"
#include "pipeline_trace.hh"
#include "stall.hh"
#include "trace/trace_source.hh"
#include "watchdog.hh"

namespace aurora::core
{

/**
 * Raw end-of-run conservation counters. Every count is captured
 * independently at its source component, so the ledger can be
 * *audited*: retired instructions must equal the trace length, stall
 * plus issue plus tail cycles must sum to total cycles, cache hits
 * plus misses must equal accesses, and every MSHR allocated must
 * have been released (see core/audit.hh). A violation means either
 * a simulator accounting bug or a corrupted (journal-replayed)
 * result — both worth refusing to report.
 */
struct RunLedger
{
    /** Instructions the trace source delivered (the trace length). */
    Count trace_instructions = 0;
    /** Instructions retired through the reorder buffer. */
    Count retired = 0;
    Count icache_hits = 0;
    Count icache_misses = 0;
    Count icache_accesses = 0;
    Count dcache_hits = 0;
    Count dcache_misses = 0;
    Count dcache_accesses = 0;
    Count mshr_allocations = 0;
    Count mshr_releases = 0;
    /** MSHRs still occupied after the end-of-run drain (must be 0). */
    Count mshr_outstanding = 0;

    /** Multi-line "key=value" rendering for audit failure reports. */
    std::string toString() const;
};

/**
 * Distribution summary of a per-cycle occupancy series, derived from
 * the always-on unit-width histogram the Processor keeps for each
 * bounded structure. The percentiles are integer sample values (a
 * structure holds a whole number of entries), so the summary is
 * bit-stable across platforms and worker counts.
 */
struct OccupancyStats
{
    double mean = 0.0;
    Count p50 = 0;
    Count p95 = 0;
    Count max = 0;

    /** Summarize @p h (mean / p50 / p95 / max). */
    static OccupancyStats fromHistogram(const Histogram &h);
};

/** Everything a benchmark harness needs from one simulation. */
struct RunResult
{
    std::string model;
    std::string benchmark;

    Count instructions = 0;
    Cycle cycles = 0;
    /** Cycles where at least one instruction issued. */
    Cycle issuing_cycles = 0;
    /** Post-trace drain cycles (excluded from stall accounting). */
    Cycle tail_cycles = 0;
    StallCycles stalls{};

    double icache_hit_pct = 0.0;
    double dcache_hit_pct = 0.0;
    double iprefetch_hit_pct = 0.0;
    double dprefetch_hit_pct = 0.0;
    double write_cache_hit_pct = 0.0;
    Count stores = 0;
    Count store_transactions = 0;

    Count fp_dispatched = 0;
    fpu::FpuStats fpu;

    double rbe_cost = 0.0;

    /** Raw conservation counters for the post-run auditor. */
    RunLedger ledger;

    /** Cycles that issued 0 / 1 / 2 instructions. */
    std::array<Cycle, 3> issue_width_cycles{};
    /** Mean reorder-buffer occupancy (== rob_occupancy.mean). */
    double avg_rob_occupancy = 0.0;
    /** Mean MSHR occupancy (== mshr_occupancy.mean). */
    double avg_mshr_occupancy = 0.0;

    /// @name Per-cycle occupancy distributions (Figures 7 and 9)
    /// @{
    OccupancyStats rob_occupancy;
    OccupancyStats mshr_occupancy;
    OccupancyStats fp_instq_occupancy;
    OccupancyStats fp_loadq_occupancy;
    OccupancyStats fp_storeq_occupancy;
    /// @}

    /** Fraction of cycles that issued exactly @p width. */
    double
    issueWidthFrac(unsigned width) const
    {
        return cycles ? static_cast<double>(
                            issue_width_cycles[width]) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Cycles per instruction. */
    double
    cpi() const
    {
        return instructions
                   ? static_cast<double>(cycles) /
                         static_cast<double>(instructions)
                   : 0.0;
    }

    /** CPI penalty attributable to @p cause (Figure 6 bars). */
    double
    stallCpi(StallCause cause) const
    {
        return instructions
                   ? static_cast<double>(
                         stalls[static_cast<std::size_t>(cause)]) /
                         static_cast<double>(instructions)
                   : 0.0;
    }

    /** Store traffic leaving the chip, % of store instructions. */
    double
    storeTrafficPct() const
    {
        return stores ? 100.0 * static_cast<double>(store_transactions) /
                            static_cast<double>(stores)
                      : 0.0;
    }
};

/** One instantiated machine bound to one instruction stream. */
class Processor
{
  public:
    /**
     * @param watchdog forward-progress policy enforced by advance();
     *        defaults to the AURORA_WATCHDOG_CYCLES-derived policy.
     */
    Processor(const MachineConfig &config, trace::TraceSource &source,
              WatchdogConfig watchdog = defaultWatchdog());

    /**
     * Run until the trace is exhausted and the machine drains:
     * advance() with no input limit, then finish().
     */
    RunResult run();

    /**
     * Run the cycle loop until the machine drains, or stop early
     * before a step() that could pull source instruction number
     * @p available or later (a step pulls at most pullBound()). A
     * stopped machine resumes on the next call exactly where it
     * left off, so any sequence of calls ends in the state one call
     * with NEVER reaches.
     *
     * Throws WatchdogError (NoForwardProgress) if no instruction
     * retires for watchdog.stall_limit consecutive cycles,
     * (CycleBudgetExceeded) once the clock reaches
     * watchdog.cycle_budget, or (Timeout) once the host time spent
     * inside advance() passes watchdog.deadline_ms — instead of
     * hanging on a machine that validates but cannot make progress.
     *
     * Without an observer attached, spans in which no component can
     * change state are advanced in one step (event skipping, see
     * docs/microarchitecture.md); results are identical either way.
     *
     * @return done().
     */
    bool advance(Count available = NEVER);

    /**
     * Drain the memory system after advance() returned true, build
     * the aggregated statistics, and audit them (AURORA_AUDIT).
     */
    RunResult finish();

    /**
     * Most source instructions one step() can pull: a fetch group,
     * plus a delay slot that rides with its branch.
     */
    Count pullBound() const { return config_.ifu.fetch_width + 1; }

    /** Host seconds spent inside advance() (the deadline's clock). */
    double advanceSeconds() const { return advanceSeconds_; }

    /**
     * Advance a single cycle (exposed for unit tests; the watchdog
     * is enforced only by advance()).
     */
    void step();

    /** Machine fully drained? */
    bool done() const;

    /// @name Component access (tests and reports)
    /// @{
    const ipu::Ifu &ifu() const { return ifu_; }
    const ipu::Lsu &lsu() const { return lsu_; }
    const fpu::Fpu &fpu() const { return fpu_; }
    const mem::Biu &biu() const { return biu_; }
    const mem::PrefetchUnit &prefetch() const { return prefetch_; }
    const ipu::ReorderBuffer &rob() const { return rob_; }
    /// @}

    /**
     * Attach an event observer (nullptr detaches). The observer must
     * outlive the processor's run.
     */
    void setObserver(PipelineObserver *observer)
    {
        observer_ = observer;
    }

    Cycle now() const { return now_; }
    Count instructions() const { return instructions_; }
    const StallCycles &stalls() const { return stalls_; }
    Cycle issuingCycles() const { return issuingCycles_; }
    Cycle tailCycles() const { return tailCycles_; }
    /**
     * Cycles advance() skipped in bulk instead of through step(). Not
     * part of RunResult: it describes the host-side method, not the
     * simulated machine.
     */
    Cycle skippedCycles() const { return skippedCycles_; }

    /** Watchdog policy in force for advance(). */
    const WatchdogConfig &watchdog() const { return watchdog_; }

    /**
     * Diagnostic snapshot of the current machine state (what a
     * WatchdogError carries; also useful for ad-hoc inspection).
     */
    WatchdogDiagnostic snapshot() const;

  private:
    /**
     * Pre-step counter snapshot for observer delta events. Captured
     * only while an observer is attached, so detached runs pay one
     * pointer test per cycle and nothing else.
     */
    struct ObsSnapshot
    {
        Count icache_hits = 0;
        Count icache_misses = 0;
        Count dcache_hits = 0;
        Count dcache_misses = 0;
        Count wcache_hits = 0;
        Count wcache_misses = 0;
        Count mshr_allocs = 0;
        Count mshr_releases = 0;
        Count fp_loads = 0;
        Count fp_stores = 0;
        Count fp_dispatched = 0;
        std::size_t fp_instq = 0;
        std::size_t fp_loadq = 0;
        std::size_t fp_storeq = 0;
    };

    /** Capture the counters obsEmit() diffs against. */
    ObsSnapshot obsCapture() const;

    /** Diff against @p pre and fire the cycle's aggregate events. */
    void obsEmit(const ObsSnapshot &pre);

    /** lsu_.load() wrapper that reports latency/miss to the observer. */
    Cycle observedLoad(const trace::Inst &inst);

    /**
     * Resource/operand check; false sets the stall in @p cause. The
     * op-class tests read the record's predecoded bits. Always inlined
     * into its two callers, tick() and skipIdle().
     */
    bool canIssue(const trace::Inst &inst, StallCause &cause) const;

    /** §3.1: is @p inst provably unable to raise an FP exception? */
    bool provablySafe(const trace::Inst &inst) const;

    /**
     * Cycle now_ of every unit, step() without observer events: the
     * LSU, FPU and ROB ticks, the issue stage with each instruction's
     * commit to the pipeline model, then fetch, in one body.
     */
    void tick();

    /** A per-cycle occupancy histogram, added to once per run. */
    struct Occupancy
    {
        Histogram hist;
        std::size_t value = 0;
        Cycle since = 0; ///< first cycle of value's current run

        /** The occupancy of cycle @p now is @p v. */
        void
        sample(std::size_t v, Cycle now)
        {
            if (v == value)
                return;
            hist.add(value, now - since);
            value = v;
            since = now;
        }
    };

    /**
     * Earliest cycle >= now_ at which any component, or the issue
     * head's operands, can change state (NEVER when none can).
     */
    Cycle nextEvent() const;

    /**
     * Event skipping: if no component can change state before
     * min(nextEvent(), @p limit), advance now_ there in one step,
     * charging every per-cycle counter exactly as step() would have.
     */
    void skipIdle(Cycle limit);

    MachineConfig config_;
    mem::Biu biu_;
    mem::PrefetchUnit prefetch_;
    ipu::Ifu ifu_;
    ipu::Lsu lsu_;
    fpu::Fpu fpu_;
    ipu::ReorderBuffer rob_;
    ipu::Scoreboard scoreboard_;

    WatchdogConfig watchdog_;
    Cycle now_ = 0;
    /** Cycle of the most recent retirement (watchdog progress mark). */
    Cycle lastRetire_ = 0;
    Count instructions_ = 0;
    Count fpDispatched_ = 0;
    Cycle issuingCycles_ = 0;
    Cycle tailCycles_ = 0;
    Cycle skippedCycles_ = 0;
    double advanceSeconds_ = 0.0;
    StallCycles stalls_{};
    std::array<Cycle, 3> issueWidthCycles_{};
    // Always-on per-cycle occupancy histograms (one unit-width bucket
    // per possible occupancy, so overflow is impossible). These feed
    // the RunResult OccupancyStats whether or not telemetry is
    // attached — keeping the *results* identical with and without
    // observers. A stepped cycle samples only what its events can
    // change (see tick()); skipped cycles cost nothing, as no
    // occupancy changes across them.
    Occupancy robOccupancy_;
    Occupancy mshrOccupancy_;
    Occupancy fpInstqOccupancy_;
    Occupancy fpLoadqOccupancy_;
    Occupancy fpStoreqOccupancy_;
    /**
     * The FPU holds work (!fpu_.idle() at every cycle boundary): set
     * on every FP dispatch, cleared at the end of the cycle that left
     * the FPU idle. An integer run never ticks the FPU, samples its
     * queues or asks it for its next event.
     */
    bool fpActive_ = false;
    PipelineObserver *observer_ = nullptr;
    bool drained_ = false;
    /** onDrainStart() already delivered. */
    bool drainObserved_ = false;
};

} // namespace aurora::core

#endif // AURORA_CORE_PROCESSOR_HH
