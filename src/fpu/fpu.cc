#include "fpu.hh"

#include <algorithm>

#include "util/logging.hh"

namespace aurora::fpu
{

const char *
issuePolicyName(IssuePolicy policy)
{
    switch (policy) {
      case IssuePolicy::InOrderComplete:
        return "in-order issue & completion";
      case IssuePolicy::OutOfOrderSingle:
        return "single issue, ooo completion";
      case IssuePolicy::OutOfOrderDual:
        return "dual issue, ooo completion";
      default:
        AURORA_PANIC("invalid issue policy");
    }
}

Fpu::Fpu(const FpuConfig &config)
    : config_(config), add_(config.add, "add"), mul_(config.mul, "mul"),
      div_(config.div, "div"), cvt_(config.cvt, "cvt"),
      buses_(config.result_buses),
      rob_(config.rob_entries, /*retire_width=*/2),
      instQueue_(config.inst_queue), loadQueue_(config.load_queue),
      storeQueue_(config.store_queue), fregReady_(32, 0),
      pendingWriters_(32, 0)
{
}

FunctionalUnit &
Fpu::unitFor(trace::OpClass op)
{
    switch (op) {
      case trace::OpClass::FpAdd: return add_;
      case trace::OpClass::FpMul: return mul_;
      case trace::OpClass::FpDiv: return div_;
      case trace::OpClass::FpCvt: return cvt_;
      default:
        AURORA_PANIC("not an FP arithmetic op: ",
                     static_cast<int>(op));
    }
}

const FunctionalUnit &
Fpu::unitFor(trace::OpClass op) const
{
    return const_cast<Fpu *>(this)->unitFor(op);
}

Cycle
Fpu::regReadyAt(RegIndex reg) const
{
    if (reg == NO_REG)
        return 0;
    AURORA_ASSERT(reg < 32, "FP register index out of range");
    return fregReady_[reg];
}

Cycle
Fpu::operandsReadyAt(const QueuedOp &qop) const
{
    return std::max(regReadyAt(qop.fsrc_a), regReadyAt(qop.fsrc_b));
}

void
Fpu::dispatchArith(const trace::Inst &inst, Cycle now)
{
    AURORA_ASSERT(trace::isFpArith(inst.op),
                  "dispatchArith on a non-arith op");
    AURORA_ASSERT(!instQueue_.full(), "FP instruction queue overrun");
    instQueue_.push(
        {inst.op, inst.fsrc_a, inst.fsrc_b, inst.fdst});
    // The ready *cycle* is recorded at issue, not here: issue is in
    // order, so a consumer reaching the queue head is guaranteed to
    // observe its producer's completion cycle, while marking a cycle
    // at dispatch would let a later writer of the same register
    // block an earlier reader forever (a WAR deadlock). The counter
    // below only tracks existence, for the store queue.
    if (inst.fdst != NO_REG)
        ++pendingWriters_[inst.fdst];
    (void)now;
}

void
Fpu::dispatchLoad(RegIndex fdst, Cycle data_ready, Cycle now)
{
    AURORA_ASSERT(!loadQueue_.full(), "FP load queue overrun");
    ++stats_.loads;
    loadQueue_.push(data_ready);
    if (fdst != NO_REG)
        fregReady_[fdst] = data_ready;
    (void)now;
}

void
Fpu::dispatchStore(RegIndex fsrc, Cycle now)
{
    AURORA_ASSERT(!storeQueue_.full(), "FP store queue overrun");
    ++stats_.stores;
    storeQueue_.push(fsrc);
    (void)now;
}

Fpu::Blocker
Fpu::blocker(const QueuedOp &qop, Cycle now,
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

Count &
Fpu::blockedCount(Blocker b)
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

bool
Fpu::inOrderHold(Cycle now) const
{
    if (config_.policy != IssuePolicy::InOrderComplete)
        return false;
    // §5.8: no instructions active in *multiple* functional units —
    // successive operations may overlap only inside one pipelined
    // unit (where completion order is preserved).
    const FunctionalUnit &unit = unitFor(instQueue_.front().op);
    const bool same_unit_stream =
        &unit == lastUnit_ && unit.config().pipelined;
    return now < lastCompletion_ && !same_unit_stream;
}

bool
Fpu::tryIssue(const QueuedOp &qop, Cycle now,
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
    lastCompletion_ = completion > lastCompletion_ ? completion
                                                   : lastCompletion_;
    ++stats_.issued;
    return true;
}

void
Fpu::tickBusy(Cycle now)
{
    buses_.advance(now);
    rob_.retire(now);

    // Load queue entries free once their data has been written to
    // the register file.
    while (!loadQueue_.empty() && loadQueue_.front() <= now)
        loadQueue_.pop();

    // The store queue drains one entry per cycle once the producing
    // operation has delivered the data (§2.3: "write cache eviction
    // and data cache writeback must wait for the data").
    if (!storeQueue_.empty()) {
        const RegIndex src = storeQueue_.front();
        if (src == NO_REG ||
            (pendingWriters_[src] == 0 && fregReady_[src] <= now))
            storeQueue_.pop();
    }

    if (instQueue_.empty())
        return;

    switch (config_.policy) {
      case IssuePolicy::InOrderComplete: {
        if (inOrderHold(now))
            break;
        if (tryIssue(instQueue_.front(), now, nullptr)) {
            lastUnit_ = &unitFor(instQueue_.front().op);
            instQueue_.pop();
        }
        break;
      }
      case IssuePolicy::OutOfOrderSingle: {
        if (tryIssue(instQueue_.front(), now, nullptr))
            instQueue_.pop();
        break;
      }
      case IssuePolicy::OutOfOrderDual: {
        if (!tryIssue(instQueue_.front(), now, nullptr))
            break;
        const QueuedOp head = instQueue_.pop();
        if (instQueue_.empty())
            break;
        // §5.8: dual issue is limited by data dependencies, reorder
        // buffer stalls, busy units, result bus conflicts, and fewer
        // than two queued entries.
        const QueuedOp &second = instQueue_.front();
        const bool raw = head.fdst != NO_REG &&
                         (second.fsrc_a == head.fdst ||
                          second.fsrc_b == head.fdst);
        if (raw)
            break;
        if (tryIssue(second, now, &unitFor(head.op))) {
            instQueue_.pop();
            ++stats_.dual_cycles;
        }
        break;
      }
    }
}

Cycle
Fpu::nextEvent(Cycle now) const
{
    Cycle next = rob_.nextRetire();
    if (!loadQueue_.empty())
        next = std::min(next, loadQueue_.front());
    if (!storeQueue_.empty()) {
        // A store waiting on an unissued writer moves only once that
        // writer issues, which the instruction-queue head covers.
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
        // The head issues now or meets a result-bus conflict, whose
        // slots move every cycle: either way, single-step.
        return now;
    }
}

void
Fpu::chargeIdle(Cycle now, Cycle cycles)
{
    if (instQueue_.empty() || inOrderHold(now))
        return;
    const Blocker b = blocker(instQueue_.front(), now, nullptr);
    AURORA_ASSERT(b != Blocker::None, "idle charge for an issuable op");
    blockedCount(b) += cycles;
}

} // namespace aurora::fpu
