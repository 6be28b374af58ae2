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

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "fpu_config.hh"
#include "functional_unit.hh"
#include "ipu/rob.hh"
#include "result_bus.hh"
#include "trace/inst.hh"
#include "util/bounded_queue.hh"
#include "util/logging.hh"
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

/**
 * Cycle-level model of the Aurora III FPU chip.
 *
 * Everything the processor calls on a stepped cycle, a skip attempt or
 * an FP issue is inline here; only the busy tick body, which runs while
 * the FPU holds work, is a call into fpu.cc.
 */
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
    void
    dispatchArith(const trace::Inst &inst, Cycle now)
    {
        AURORA_ASSERT(trace::isFpArith(inst.op),
                      "dispatchArith on a non-arith op");
        AURORA_ASSERT(!instQueue_.full(), "FP instruction queue overrun");
        instQueue_.push({inst.op, inst.fsrc_a, inst.fsrc_b, inst.fdst});
        // The ready *cycle* is recorded at issue, not here: issue is in
        // order, so a consumer reaching the queue head is guaranteed to
        // observe its producer's completion cycle, while marking a
        // cycle at dispatch would let a later writer of the same
        // register block an earlier reader forever (a WAR deadlock).
        // The counter below only tracks existence, for the store queue.
        if (inst.fdst != NO_REG)
            ++pendingWriters_[inst.fdst];
        (void)now;
    }

    /**
     * Register an FP load whose data the LSU will deliver at
     * @p data_ready; the destination register becomes available then.
     */
    void
    dispatchLoad(RegIndex fdst, Cycle data_ready, Cycle now)
    {
        AURORA_ASSERT(!loadQueue_.full(), "FP load queue overrun");
        ++stats_.loads;
        loadQueue_.push(data_ready);
        if (fdst != NO_REG)
            fregReady_[fdst] = data_ready;
        (void)now;
    }

    /**
     * Register an FP store; its data leaves the store queue once the
     * producing instruction has written @p fsrc.
     */
    void
    dispatchStore(RegIndex fsrc, Cycle now)
    {
        AURORA_ASSERT(!storeQueue_.full(), "FP store queue overrun");
        ++stats_.stores;
        storeQueue_.push(fsrc);
        (void)now;
    }
    /// @}

    /** Advance one cycle: retire, drain queues, issue instructions. */
    void
    tick(Cycle now)
    {
        if (!idle())
            tickBusy(now);
    }

    /**
     * tick() for a caller that already knows the FPU holds work (the
     * processor tracks that from its dispatches). An idle FPU holds
     * no future result-bus slot, so the bus window it did not advance
     * catches up here. Out of line on purpose: inlined into the
     * processor's cycle loop, it made integer-only grids slower.
     */
    void tickBusy(Cycle now);

    /**
     * Earliest cycle >= @p now at which tick() changes more than the
     * blocked_* counters: a reorder-buffer retirement, a load- or
     * store-queue pop, or the instruction-queue head issuing or
     * changing what blocks it. NEVER when nothing is pending.
     */
    Cycle
    nextEvent(Cycle now) const
    {
        Cycle next = rob_.nextRetire();
        if (!loadQueue_.empty())
            next = std::min(next, loadQueue_.front());
        if (!storeQueue_.empty()) {
            // A store waiting on an unissued writer moves only once
            // that writer issues, which the instruction-queue head
            // covers.
            const RegIndex src = storeQueue_.front();
            if (src == NO_REG)
                return now;
            if (pendingWriters_[src] == 0)
                next = std::min(next, fregReady_[src]);
        }
        if (instQueue_.empty())
            return next;
        if (inOrderHold(now))
            return std::min(next, lastCompletion_);
        const QueuedOp &head = instQueue_.front();
        switch (blocker(head, now, nullptr)) {
          case Blocker::Operand:
            return std::min(next, operandsReadyAt(head));
          case Blocker::Unit:
            return std::min(next, unitFor(head.op).freeAt());
          case Blocker::Rob:
            // Only a retirement, already in next, frees a slot.
            return next;
          default:
            // The head issues now or meets a result-bus conflict,
            // whose slots move every cycle: either way, single-step.
            return now;
        }
    }

    /**
     * Charge the blocked_* counters for @p cycles idle ticks starting
     * at @p now, exactly as that many tick() calls would. Valid only
     * while now + cycles <= nextEvent(now).
     */
    void
    chargeIdle(Cycle now, Cycle cycles)
    {
        if (instQueue_.empty() || inOrderHold(now))
            return;
        const Blocker b = blocker(instQueue_.front(), now, nullptr);
        AURORA_ASSERT(b != Blocker::None,
                      "idle charge for an issuable op");
        blockedCount(b) += cycles;
    }

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
    Cycle
    regReadyAt(RegIndex reg) const
    {
        if (reg == NO_REG)
            return 0;
        AURORA_ASSERT(reg < 32, "FP register index out of range");
        return fregReady_[reg];
    }

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
    const FunctionalUnit &addUnit() const
    {
        return unitFor(trace::OpClass::FpAdd);
    }
    const FunctionalUnit &mulUnit() const
    {
        return unitFor(trace::OpClass::FpMul);
    }
    const FunctionalUnit &divUnit() const
    {
        return unitFor(trace::OpClass::FpDiv);
    }
    const FunctionalUnit &cvtUnit() const
    {
        return unitFor(trace::OpClass::FpCvt);
    }
    /// @}

  private:
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

    /** Index of @p op's unit in units_: FpAdd, FpMul, FpDiv, FpCvt. */
    static std::size_t
    unitIndex(trace::OpClass op)
    {
        static_assert(static_cast<int>(trace::OpClass::FpMul) ==
                              static_cast<int>(trace::OpClass::FpAdd) + 1 &&
                          static_cast<int>(trace::OpClass::FpDiv) ==
                              static_cast<int>(trace::OpClass::FpAdd) + 2 &&
                          static_cast<int>(trace::OpClass::FpCvt) ==
                              static_cast<int>(trace::OpClass::FpAdd) + 3,
                      "the FP arithmetic classes index units_");
        const std::size_t i =
            static_cast<std::size_t>(op) -
            static_cast<std::size_t>(trace::OpClass::FpAdd);
        AURORA_ASSERT(i < NUM_UNITS, "not an FP arithmetic op: ",
                      static_cast<int>(op));
        return i;
    }

    /** The unit executing @p op. */
    FunctionalUnit &unitFor(trace::OpClass op)
    {
        return units_[unitIndex(op)];
    }
    const FunctionalUnit &unitFor(trace::OpClass op) const
    {
        return units_[unitIndex(op)];
    }

    /** Cycle both sources of @p qop become readable. */
    Cycle
    operandsReadyAt(const QueuedOp &qop) const
    {
        return std::max(regReadyAt(qop.fsrc_a), regReadyAt(qop.fsrc_b));
    }

    /**
     * The operand, unit or reorder-buffer hazard that stops @p qop
     * issuing at @p now, checked in the order the blocked_* counters
     * are charged. The result bus is checked last, at issue.
     */
    Blocker
    blocker(const QueuedOp &qop, Cycle now,
            const FunctionalUnit *exclude_unit) const
    {
        if (operandsReadyAt(qop) > now)
            return Blocker::Operand;
        const FunctionalUnit &unit = unitFor(qop.op);
        if (&unit == exclude_unit || !unit.canIssue(now))
            return Blocker::Unit;
        if (rob_.full())
            return Blocker::Rob;
        return Blocker::None;
    }

    /** The blocked_* counter charged for @p b. */
    Count &
    blockedCount(Blocker b)
    {
        switch (b) {
          case Blocker::Operand: return stats_.blocked_operand;
          case Blocker::Unit: return stats_.blocked_unit;
          case Blocker::Rob: return stats_.blocked_rob;
          case Blocker::Bus: return stats_.blocked_bus;
          default:
            AURORA_PANIC("no counter for an unblocked op");
        }
    }

    /**
     * InOrderComplete only: the head may not start in another unit
     * while an earlier operation is still completing.
     */
    bool
    inOrderHold(Cycle now) const
    {
        if (config_.policy != IssuePolicy::InOrderComplete)
            return false;
        // §5.8: no instructions active in *multiple* functional units
        // — successive operations may overlap only inside one
        // pipelined unit (where completion order is preserved).
        const FunctionalUnit &unit = unitFor(instQueue_.front().op);
        const bool same_unit_stream =
            &unit == lastUnit_ && unit.config().pipelined;
        return now < lastCompletion_ && !same_unit_stream;
    }

    /**
     * Try to issue @p qop at @p now.
     * @param exclude_unit unit already taken this cycle (dual issue),
     *        or nullptr.
     * @retval true issued; queue entry must be popped by the caller.
     */
    bool
    tryIssue(const QueuedOp &qop, Cycle now,
             const FunctionalUnit *exclude_unit)
    {
        FunctionalUnit &unit = unitFor(qop.op);
        const Cycle completion = now + unit.config().latency;
        Blocker b = blocker(qop, now, exclude_unit);
        if (b == Blocker::None && !buses_.canReserve(completion))
            b = Blocker::Bus;
        if (b != Blocker::None) {
            ++blockedCount(b);
            return false;
        }
        unit.issue(now);
        buses_.reserve(completion);
        rob_.allocate(completion);
        if (qop.fdst != NO_REG) {
            fregReady_[qop.fdst] = completion;
            AURORA_ASSERT(pendingWriters_[qop.fdst] > 0,
                          "pending-writer underflow");
            --pendingWriters_[qop.fdst];
        }
        lastCompletion_ = std::max(completion, lastCompletion_);
        ++stats_.issued;
        return true;
    }

    static constexpr std::size_t NUM_UNITS = 4;

    FpuConfig config_;
    /** Add, multiply, divide, convert: see unitIndex(). */
    std::array<FunctionalUnit, NUM_UNITS> units_;
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
