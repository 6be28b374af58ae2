/**
 * @file
 * The decoupled floating point unit (§3).
 *
 * The IPU transfers floating point instructions into a small
 * instruction queue and keeps running ("slip"); the FPU issues from
 * the head of that queue under one of three policies (§5.8), executes
 * in four functional units, arbitrates two result busses, and retires
 * through its own reorder buffer. FP load data arrives through a load
 * queue filled by the LSU; FP store data leaves through a store queue
 * once the producing operation completes. The IPU stalls only when a
 * queue it must write is full — that is the decoupling the paper's
 * §5.9 sizes.
 */

#ifndef AURORA_FPU_FPU_HH
#define AURORA_FPU_FPU_HH

#include <vector>

#include "fpu_config.hh"
#include "functional_unit.hh"
#include "ipu/rob.hh"
#include "result_bus.hh"
#include "trace/inst.hh"
#include "util/bounded_queue.hh"
#include "util/stats.hh"

namespace aurora::fpu
{

/** Issue-blocking causes, tallied per cycle for analysis. */
struct FpuStats
{
    Count issued = 0;            ///< FP operations issued to units
    Count dual_cycles = 0;       ///< cycles that issued two ops
    Count blocked_operand = 0;   ///< head waits for a source register
    Count blocked_unit = 0;      ///< head waits for its unit
    Count blocked_rob = 0;       ///< reorder buffer full
    Count blocked_bus = 0;       ///< no result bus at completion
    Count loads = 0;             ///< load-queue entries accepted
    Count stores = 0;            ///< store-queue entries accepted
};

/** Cycle-level model of the Aurora III FPU chip. */
class Fpu
{
  public:
    explicit Fpu(const FpuConfig &config);

    /// @name IPU dispatch interface
    /// @{
    /** Space in the instruction queue for an arithmetic op? */
    bool canAcceptArith() const { return !instQueue_.full(); }
    /** Space in the load data queue? */
    bool canAcceptLoad() const { return !loadQueue_.full(); }
    /** Space in the store data queue? */
    bool canAcceptStore() const { return !storeQueue_.full(); }

    /** Transfer an FP arithmetic instruction into the queue. */
    void dispatchArith(const trace::Inst &inst, Cycle now);

    /**
     * Register an FP load whose data the LSU will deliver at
     * @p data_ready; the destination register becomes available then.
     */
    void dispatchLoad(RegIndex fdst, Cycle data_ready, Cycle now);

    /**
     * Register an FP store; its data leaves the store queue once the
     * producing instruction has written @p fsrc.
     */
    void dispatchStore(RegIndex fsrc, Cycle now);
    /// @}

    /** Advance one cycle: retire, drain queues, issue instructions. */
    void
    tick(Cycle now)
    {
        if (!idle())
            tickBusy(now);
    }

    /**
     * Earliest cycle >= @p now at which tick() changes more than the
     * blocked_* counters: a reorder-buffer retirement, a load- or
     * store-queue pop, or the instruction-queue head issuing or
     * changing what blocks it. NEVER when nothing is pending.
     */
    Cycle nextEvent(Cycle now) const;

    /**
     * Charge the blocked_* counters for @p cycles idle ticks starting
     * at @p now, exactly as that many tick() calls would. Valid only
     * while now + cycles <= nextEvent(now).
     */
    void chargeIdle(Cycle now, Cycle cycles);

    /** Everything drained (end of simulation). */
    bool
    idle() const
    {
        return instQueue_.empty() && loadQueue_.empty() &&
               storeQueue_.empty() && rob_.empty();
    }

    /**
     * No FP arithmetic active or queued — the condition the §3.1
     * precise-exception mode waits for before transferring an
     * instruction that might fault.
     */
    bool
    quiescent() const
    {
        return instQueue_.empty() && rob_.empty();
    }

    /** When register @p reg is available (0 = ready). */
    Cycle regReadyAt(RegIndex reg) const;

    const FpuStats &stats() const { return stats_; }
    const FpuConfig &config() const { return config_; }

    /// @name Decoupling queue occupancy (watchdog diagnostics)
    /// @{
    std::size_t instQueueSize() const { return instQueue_.size(); }
    std::size_t loadQueueSize() const { return loadQueue_.size(); }
    std::size_t storeQueueSize() const { return storeQueue_.size(); }
    /** FPU reorder-buffer occupancy (telemetry sampling). */
    std::size_t robSize() const { return rob_.size(); }
    /// @}

    /// @name Functional unit access (statistics)
    /// @{
    const FunctionalUnit &addUnit() const { return add_; }
    const FunctionalUnit &mulUnit() const { return mul_; }
    const FunctionalUnit &divUnit() const { return div_; }
    const FunctionalUnit &cvtUnit() const { return cvt_; }
    /// @}

  private:
    /**
     * tick() with work queued. An idle FPU holds no future result-bus
     * slot, so the bus window it did not advance catches up here.
     */
    void tickBusy(Cycle now);

    /** A queued FP arithmetic instruction. */
    struct QueuedOp
    {
        trace::OpClass op = trace::OpClass::FpAdd;
        RegIndex fsrc_a = NO_REG;
        RegIndex fsrc_b = NO_REG;
        RegIndex fdst = NO_REG;
    };

    /** Why a queued op cannot issue (None: it can). */
    enum class Blocker
    {
        None,
        Operand,
        Unit,
        Rob,
        Bus
    };

    /** The unit executing @p op. */
    FunctionalUnit &unitFor(trace::OpClass op);
    const FunctionalUnit &unitFor(trace::OpClass op) const;

    /** Cycle both sources of @p qop become readable. */
    Cycle operandsReadyAt(const QueuedOp &qop) const;

    /**
     * The operand, unit or reorder-buffer hazard that stops @p qop
     * issuing at @p now, checked in the order the blocked_* counters
     * are charged. The result bus is checked last, at issue.
     */
    Blocker blocker(const QueuedOp &qop, Cycle now,
                    const FunctionalUnit *exclude_unit) const;

    /** The blocked_* counter charged for @p b. */
    Count &blockedCount(Blocker b);

    /**
     * InOrderComplete only: the head may not start in another unit
     * while an earlier operation is still completing.
     */
    bool inOrderHold(Cycle now) const;

    /**
     * Try to issue @p qop at @p now.
     * @param exclude_unit unit already taken this cycle (dual issue),
     *        or nullptr.
     * @retval true issued; queue entry must be popped by the caller.
     */
    bool tryIssue(const QueuedOp &qop, Cycle now,
                  const FunctionalUnit *exclude_unit);

    FpuConfig config_;
    FunctionalUnit add_;
    FunctionalUnit mul_;
    FunctionalUnit div_;
    FunctionalUnit cvt_;
    ResultBusSchedule buses_;
    ipu::ReorderBuffer rob_;

    BoundedQueue<QueuedOp> instQueue_;
    BoundedQueue<Cycle> loadQueue_;    ///< entry = data arrival cycle
    BoundedQueue<RegIndex> storeQueue_; ///< entry = data source reg

    std::vector<Cycle> fregReady_;    ///< per-register ready cycle
    const FunctionalUnit *lastUnit_ = nullptr; ///< InOrderComplete
    /**
     * Writers per register that are dispatched but not yet issued.
     * The store queue must wait for these: their completion cycle is
     * unknown until they issue, and a stale fregReady_ value would
     * let store data leave before it exists.
     */
    std::vector<std::uint16_t> pendingWriters_;
    Cycle lastCompletion_ = 0;        ///< for InOrderComplete
    FpuStats stats_;
};

} // namespace aurora::fpu

#endif // AURORA_FPU_FPU_HH
