#include "fpu.hh"

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
    : config_(config),
      units_{FunctionalUnit(config.add, "add"),
             FunctionalUnit(config.mul, "mul"),
             FunctionalUnit(config.div, "div"),
             FunctionalUnit(config.cvt, "cvt")},
      buses_(config.result_buses),
      rob_(config.rob_entries, /*retire_width=*/2),
      instQueue_(config.inst_queue), loadQueue_(config.load_queue),
      storeQueue_(config.store_queue), fregReady_(32, 0),
      pendingWriters_(32, 0)
{
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

} // namespace aurora::fpu
