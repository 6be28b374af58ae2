#include "processor.hh"

#include <algorithm>
#include <sstream>

#include "audit.hh"
#include "isa/predecode.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace aurora::core
{

using trace::Inst;
using trace::OpClass;

Processor::Processor(const MachineConfig &config,
                     trace::TraceSource &source,
                     WatchdogConfig watchdog)
    // Validate before any component is built from the fields.
    : config_((config.validate(), config)), biu_(config.biu),
      prefetch_(config.prefetch, biu_),
      ifu_(config.ifu, source, prefetch_),
      lsu_(config.lsu, config.write_cache, biu_, prefetch_),
      fpu_(config.fpu), rob_(config.rob_entries, config.retire_width),
      watchdog_(watchdog),
      // One unit-width bucket per possible occupancy value [0, cap].
      robOccupancy_{Histogram(config.rob_entries + 1)},
      mshrOccupancy_{Histogram(config.lsu.mshr_entries + 1)},
      fpInstqOccupancy_{Histogram(config.fpu.inst_queue + 1)},
      fpLoadqOccupancy_{Histogram(config.fpu.load_queue + 1)},
      fpStoreqOccupancy_{Histogram(config.fpu.store_queue + 1)}
{
    config_.validate();
}

OccupancyStats
OccupancyStats::fromHistogram(const Histogram &h)
{
    OccupancyStats s;
    s.mean = h.mean();
    s.p50 = h.percentile(0.50);
    s.p95 = h.percentile(0.95);
    s.max = h.maxSample();
    return s;
}

bool
Processor::done() const
{
    return ifu_.exhausted() && rob_.empty() && !fpActive_;
}

[[gnu::always_inline]] inline bool
Processor::canIssue(const Inst &inst, StallCause &cause) const
{
    const auto blocked = [&](StallCause why) {
        cause = why;
        return false;
    };

    // Structural hazard at the LSU interface is detected before
    // operand readiness: a memory instruction with no MSHR or with
    // the cache busses filling cannot even enter the LSU pipeline.
    // With a single MSHR this makes LSU-Busy the dominant stall of
    // the small model, as in Figure 6.
    const std::uint8_t flags = inst.predecoded;
    if ((flags & isa::PD_MEM) && !lsu_.canAccept(now_))
        return blocked(StallCause::LsuBusy);

    // Integer operand readiness: forwarding hides ALU latencies, so
    // in practice only outstanding loads block here (Figure 6
    // "Load" stalls).
    if (!scoreboard_.ready(inst.src_a, now_) ||
        !scoreboard_.ready(inst.src_b, now_))
        return blocked(StallCause::Load);

    if ((flags & isa::PD_FP_LOAD) && !fpu_.canAcceptLoad())
        return blocked(StallCause::FpQueue);
    if ((flags & isa::PD_FP_STORE) && !fpu_.canAcceptStore())
        return blocked(StallCause::FpQueue);
    if (flags & isa::PD_FP_ARITH) {
        if (!fpu_.canAcceptArith())
            return blocked(StallCause::FpQueue);
        // §3.1 precise mode: an op that might fault may not be
        // transferred while older FP work is in flight.
        if (config_.fpu.precise_exceptions &&
            !provablySafe(inst) && !fpu_.quiescent())
            return blocked(StallCause::FpQueue);
    }

    if (rob_.full())
        return blocked(StallCause::RobFull);

    return true;
}

Cycle
Processor::observedLoad(const Inst &inst)
{
    if (!observer_)
        return lsu_.load(inst.eff_addr, inst.size, now_);
    const Count misses_before = lsu_.dcache().hitRate().misses();
    const Cycle ready = lsu_.load(inst.eff_addr, inst.size, now_);
    observer_->onLoadIssue(
        now_, ready - now_,
        lsu_.dcache().hitRate().misses() != misses_before);
    return ready;
}

bool
Processor::provablySafe(const Inst &inst) const
{
    // Deterministic stand-in for the exponent/flag examination of
    // §3.1: a fixed fraction of static FP operations is provably
    // unable to raise an exception.
    const std::uint32_t hash = inst.pc * 2654435761u;
    const double u =
        static_cast<double>(hash >> 8) / static_cast<double>(1u << 24);
    return u < config_.fpu.provably_safe_frac;
}

Processor::ObsSnapshot
Processor::obsCapture() const
{
    ObsSnapshot s;
    s.icache_hits = ifu_.icache().hitRate().hits();
    s.icache_misses = ifu_.icache().hitRate().misses();
    s.dcache_hits = lsu_.dcache().hitRate().hits();
    s.dcache_misses = lsu_.dcache().hitRate().misses();
    s.wcache_hits = lsu_.writeCache().hitRate().hits();
    s.wcache_misses = lsu_.writeCache().hitRate().misses();
    s.mshr_allocs = lsu_.mshrs().allocations();
    s.mshr_releases = lsu_.mshrs().releases();
    s.fp_loads = fpu_.stats().loads;
    s.fp_stores = fpu_.stats().stores;
    s.fp_dispatched = fpDispatched_;
    s.fp_instq = fpu_.instQueueSize();
    s.fp_loadq = fpu_.loadQueueSize();
    s.fp_storeq = fpu_.storeQueueSize();
    return s;
}

void
Processor::obsEmit(const ObsSnapshot &pre)
{
    const ObsSnapshot cur = obsCapture();
    const auto delta = [](Count now_v, Count before) {
        return static_cast<unsigned>(now_v - before);
    };

    const unsigned ich = delta(cur.icache_hits, pre.icache_hits);
    const unsigned icm = delta(cur.icache_misses, pre.icache_misses);
    if (ich || icm)
        observer_->onCacheAccess(now_, CacheUnit::ICache, ich, icm);
    const unsigned dch = delta(cur.dcache_hits, pre.dcache_hits);
    const unsigned dcm = delta(cur.dcache_misses, pre.dcache_misses);
    if (dch || dcm)
        observer_->onCacheAccess(now_, CacheUnit::DCache, dch, dcm);
    const unsigned wch = delta(cur.wcache_hits, pre.wcache_hits);
    const unsigned wcm = delta(cur.wcache_misses, pre.wcache_misses);
    if (wch || wcm)
        observer_->onCacheAccess(now_, CacheUnit::WriteCache, wch, wcm);

    const unsigned ma = delta(cur.mshr_allocs, pre.mshr_allocs);
    const unsigned mr = delta(cur.mshr_releases, pre.mshr_releases);
    if (ma || mr)
        observer_->onMshr(now_, ma, mr,
                          static_cast<unsigned>(lsu_.mshrs().inUse()));

    // Queue enqueue counts come from producer-side counters; dequeue
    // counts fall out of the depth balance (pre + enq - deq == cur).
    const unsigned loads = delta(cur.fp_loads, pre.fp_loads);
    const unsigned stores = delta(cur.fp_stores, pre.fp_stores);
    const unsigned arith =
        delta(cur.fp_dispatched, pre.fp_dispatched) - loads - stores;
    const auto queue_event = [&](FpQueueKind kind, unsigned enq,
                                 std::size_t before, std::size_t now_d) {
        const auto deq = static_cast<unsigned>(before + enq - now_d);
        if (enq || deq)
            observer_->onFpQueue(now_, kind, enq, deq,
                                 static_cast<unsigned>(now_d));
    };
    queue_event(FpQueueKind::Inst, arith, pre.fp_instq, cur.fp_instq);
    queue_event(FpQueueKind::Load, loads, pre.fp_loadq, cur.fp_loadq);
    queue_event(FpQueueKind::Store, stores, pre.fp_storeq,
                cur.fp_storeq);

    if (!drainObserved_ && ifu_.exhausted()) {
        drainObserved_ = true;
        observer_->onDrainStart(now_);
    }

    OccupancySample occ;
    occ.rob = static_cast<unsigned>(rob_.size());
    occ.mshr = static_cast<unsigned>(lsu_.mshrs().inUse());
    occ.write_cache = lsu_.writeCache().linesInUse();
    occ.prefetch = prefetch_.entriesInFlight();
    occ.fp_instq = static_cast<unsigned>(cur.fp_instq);
    occ.fp_loadq = static_cast<unsigned>(cur.fp_loadq);
    occ.fp_storeq = static_cast<unsigned>(cur.fp_storeq);
    occ.fp_rob = static_cast<unsigned>(fpu_.robSize());
    observer_->onCycleEnd(now_, occ);
}

void
Processor::step()
{
    if (observer_) {
        // Snapshot source counters up front so the whole step — LSU/FPU
        // ticks, retirement, issue, fetch — lands in one set of
        // per-cycle delta events. Pure reads: results are identical
        // either way.
        const ObsSnapshot pre = obsCapture();
        tick();
        obsEmit(pre);
    } else {
        tick();
    }
    ++now_;
}

void
Processor::tick()
{
    lsu_.tick(now_);
    if (fpActive_)
        fpu_.tickBusy(now_);
    const unsigned retired = rob_.retire(now_);
    if (retired)
        lastRetire_ = now_;
    if (observer_ && retired)
        observer_->onRetire(now_, retired);

    // The issue stage. Instructions issue from the fetch buffer in
    // place and leave it together once the group is complete.
    unsigned issued = 0;
    StallCause cause = StallCause::ICache;
    while (issued < config_.issue_width) {
        if (ifu_.available() == issued) {
            // Buffer drained: an I-cache miss, a fetch bubble, or the
            // end of the trace.
            break;
        }
        const Inst &inst = ifu_.peek(issued);
        // The Figure 3 pairing rules (alignment, DI bit, single memory
        // access per cycle), predecoded against the instruction ahead.
        if (issued == 1 && !(inst.predecoded & isa::PD_DUAL))
            break;
        StallCause blocked = StallCause::ICache;
        if (!canIssue(inst, blocked)) {
            if (issued == 0)
                cause = blocked;
            break;
        }
        // Commit the instruction to the pipeline model.
        switch (inst.op) {
          case OpClass::IntAlu: {
            scoreboard_.setWriter(inst.dst, now_ + config_.alu_latency,
                                  /*is_load=*/false);
            rob_.allocate(now_ + config_.alu_latency);
            break;
          }
          case OpClass::Branch:
          case OpClass::Jump:
          case OpClass::Nop:
          case OpClass::FpMove: {
            rob_.allocate(now_ + 1);
            break;
          }
          case OpClass::Load: {
            const Cycle ready = observedLoad(inst);
            scoreboard_.setWriter(inst.dst, ready, /*is_load=*/true);
            rob_.allocate(ready);
            break;
          }
          case OpClass::Store: {
            lsu_.store(inst.eff_addr, inst.size, now_);
            rob_.allocate(now_ + 1);
            break;
          }
          case OpClass::FpLoad: {
            const Cycle ready = observedLoad(inst);
            fpu_.dispatchLoad(inst.fdst, ready, now_);
            rob_.allocate(now_ + 1);
            ++fpDispatched_;
            fpActive_ = true;
            break;
          }
          case OpClass::FpStore: {
            lsu_.store(inst.eff_addr, inst.size, now_);
            fpu_.dispatchStore(inst.fsrc_a, now_);
            rob_.allocate(now_ + 1);
            ++fpDispatched_;
            fpActive_ = true;
            break;
          }
          case OpClass::FpAdd:
          case OpClass::FpMul:
          case OpClass::FpDiv:
          case OpClass::FpCvt: {
            fpu_.dispatchArith(inst, now_);
            rob_.allocate(now_ + 1);
            ++fpDispatched_;
            fpActive_ = true;
            break;
          }
          default:
            AURORA_PANIC("unhandled op class ",
                         static_cast<int>(inst.op));
        }
        ++instructions_;
        if (observer_)
            observer_->onIssue(now_, inst, issued);
        ++issued;
    }
    ifu_.pop(issued);

    if (issued > 0) {
        ++issuingCycles_;
    } else if (ifu_.exhausted()) {
        ++tailCycles_;
    } else {
        ++stalls_[static_cast<std::size_t>(cause)];
        if (observer_)
            observer_->onStall(now_, cause);
    }
    ++issueWidthCycles_[issued];

    // Fetch: instructions fetched now are issueable from now_ + 1.
    ifu_.tick(now_);
    // Occupancy is sampled only on cycles whose events can change it:
    // the ROB moves on an issue or a retirement, and the FP queues
    // hold nothing while the FPU is inactive.
    if (issued || retired)
        robOccupancy_.sample(rob_.size(), now_);
    mshrOccupancy_.sample(lsu_.mshrs().inUse(), now_);
    if (fpActive_) {
        fpInstqOccupancy_.sample(fpu_.instQueueSize(), now_);
        fpLoadqOccupancy_.sample(fpu_.loadQueueSize(), now_);
        fpStoreqOccupancy_.sample(fpu_.storeQueueSize(), now_);
        fpActive_ = !fpu_.idle();
    }
}

Cycle
Processor::nextEvent() const
{
    Cycle next = std::min({lsu_.nextEvent(now_), rob_.nextRetire(),
                           ifu_.nextEvent(now_)});
    if (fpActive_)
        next = std::min(next, fpu_.nextEvent(now_));
    // A Load stall ends when the issue head's sources become ready.
    if (!ifu_.empty()) {
        const Inst &head = ifu_.peek(0);
        for (const RegIndex reg : {head.src_a, head.src_b}) {
            const Cycle ready = scoreboard_.readyAt(reg);
            if (ready > now_ && ready < next)
                next = ready;
        }
    }
    return next;
}

void
Processor::skipIdle(Cycle limit)
{
    if (done())
        return;
    const Cycle until = std::min(nextEvent(), limit);
    if (until <= now_)
        return;
    // Nothing the issue stage reads changes before `until`, so every
    // cycle of the span charges what this cycle would.
    std::optional<StallCause> cause;
    if (!ifu_.exhausted()) {
        StallCause blocked = StallCause::ICache;
        if (!ifu_.empty() && canIssue(ifu_.peek(0), blocked))
            return;
        cause = blocked;
    }
    const Cycle span = until - now_;
    if (fpActive_)
        fpu_.chargeIdle(now_, span);
    if (cause)
        stalls_[static_cast<std::size_t>(*cause)] += span;
    else
        tailCycles_ += span;
    issueWidthCycles_[0] += span;
    skippedCycles_ += span;
    now_ = until;
}

WatchdogDiagnostic
Processor::snapshot() const
{
    WatchdogDiagnostic diag;
    diag.model = config_.name;
    diag.watchdog = watchdog_;
    diag.cycle = now_;
    diag.instructions = instructions_;
    diag.retired = rob_.retired();
    diag.last_retire_cycle = lastRetire_;
    diag.stalls = stalls_;
    diag.rob_size = rob_.size();
    diag.rob_capacity = rob_.capacity();
    diag.fp_instq_size = fpu_.instQueueSize();
    diag.fp_instq_capacity = config_.fpu.inst_queue;
    diag.fp_loadq_size = fpu_.loadQueueSize();
    diag.fp_loadq_capacity = config_.fpu.load_queue;
    diag.fp_storeq_size = fpu_.storeQueueSize();
    diag.fp_storeq_capacity = config_.fpu.store_queue;
    return diag;
}

std::string
RunLedger::toString() const
{
    std::ostringstream os;
    os << "trace_instructions=" << trace_instructions
       << " retired=" << retired << " icache=" << icache_hits << "+"
       << icache_misses << "/" << icache_accesses << " dcache="
       << dcache_hits << "+" << dcache_misses << "/"
       << dcache_accesses << " mshr_alloc=" << mshr_allocations
       << " mshr_release=" << mshr_releases << " mshr_outstanding="
       << mshr_outstanding;
    return os.str();
}

RunResult
Processor::run()
{
    advance();
    return finish();
}

bool
Processor::advance(Count available)
{
    const bool deadline_armed = watchdog_.deadline_ms > 0;
    const Count pull_bound = pullBound();
    // The deadline clock counts only time spent in here, charged on
    // every exit (watchdog throws included): a machine that waits
    // while others sharing its trace run is not spending its budget.
    struct Charge
    {
        double &total;
        const WallTimer timer;
        ~Charge() { total += timer.seconds(); }
    } charge{advanceSeconds_, {}};
    // Liveness checks live here rather than in step() so the cycle
    // accounting of a healthy run is untouched and unit tests may
    // still single-step a deliberately stuck machine. They run only
    // once the clock reaches check_at, a bound no later than the
    // first cycle any of them could trip. lastRetire_ only grows, so
    // a bound taken from an older lastRetire_ is early, never late.
    Cycle check_at = now_;
    while (!done()) {
        if (ifu_.fetchedFromSource() + pull_bound > available)
            return false;
        if (now_ >= check_at) {
            if (watchdog_.cycle_budget && now_ >= watchdog_.cycle_budget)
                throw WatchdogError(
                    util::SimErrorCode::CycleBudgetExceeded, snapshot());
            if (watchdog_.stall_limit &&
                now_ - lastRetire_ >= watchdog_.stall_limit)
                throw WatchdogError(
                    util::SimErrorCode::NoForwardProgress, snapshot());
            // The wall-clock deadline is sampled every 1024 cycles: a
            // steady_clock read per cycle would dominate the
            // simulation, and millisecond deadlines do not need cycle
            // resolution.
            if (deadline_armed && (now_ & 1023u) == 0 &&
                (advanceSeconds_ + charge.timer.seconds()) * 1000.0 >=
                    static_cast<double>(watchdog_.deadline_ms))
                throw WatchdogError(util::SimErrorCode::Timeout,
                                    snapshot());
            check_at = NEVER;
            if (watchdog_.cycle_budget)
                check_at = watchdog_.cycle_budget;
            if (watchdog_.stall_limit)
                check_at = std::min(check_at,
                                    lastRetire_ + watchdog_.stall_limit);
            if (deadline_armed)
                check_at =
                    std::min(check_at, (now_ + 1024) & ~Cycle{1023});
        }
        const Cycle issuing_before = issuingCycles_;
        step();
        // Event skipping, tried only after a cycle that issued nothing
        // and never under an observer, which sees every cycle. The
        // jump stops at the next cycle a check above could trip (taken
        // from the current lastRetire_, not check_at), so every trip
        // lands on the same cycle with the same snapshot.
        if (observer_ || issuingCycles_ != issuing_before)
            continue;
        Cycle limit = NEVER;
        if (watchdog_.cycle_budget)
            limit = watchdog_.cycle_budget;
        if (watchdog_.stall_limit)
            limit = std::min(limit, lastRetire_ + watchdog_.stall_limit);
        if (deadline_armed)
            limit = std::min(limit, (now_ + 1023) & ~Cycle{1023});
        skipIdle(limit);
    }
    return true;
}

RunResult
Processor::finish()
{
    AURORA_ASSERT(done(), "finish() before advance() drained the machine");
    AURORA_ASSERT(fpu_.idle(), "processor lost track of FPU work");
    if (!drained_) {
        const Count releases_before = lsu_.mshrs().releases();
        lsu_.drain(now_);
        drained_ = true;
        if (observer_)
            observer_->onDrainEnd(
                now_, static_cast<unsigned>(lsu_.mshrs().releases() -
                                            releases_before));
    }

    RunResult res;
    res.model = config_.name;
    res.instructions = instructions_;
    res.cycles = now_;
    res.issuing_cycles = issuingCycles_;
    res.tail_cycles = tailCycles_;
    res.stalls = stalls_;
    res.icache_hit_pct = ifu_.icache().hitRate().percent();
    res.dcache_hit_pct = lsu_.dcache().hitRate().percent();
    res.iprefetch_hit_pct = prefetch_.instHitRate().percent();
    res.dprefetch_hit_pct = prefetch_.dataHitRate().percent();
    res.write_cache_hit_pct = lsu_.writeCache().hitRate().percent();
    res.stores = lsu_.writeCache().stores();
    res.store_transactions = lsu_.writeCache().storeTransactions();
    res.fp_dispatched = fpDispatched_;
    res.fpu = fpu_.stats();
    res.rbe_cost = config_.rbeCost();
    res.issue_width_cycles = issueWidthCycles_;
    const auto stats = [&](Occupancy &occ) {
        occ.sample(NEVER, now_); // close the open run
        return OccupancyStats::fromHistogram(occ.hist);
    };
    res.rob_occupancy = stats(robOccupancy_);
    res.mshr_occupancy = stats(mshrOccupancy_);
    res.fp_instq_occupancy = stats(fpInstqOccupancy_);
    res.fp_loadq_occupancy = stats(fpLoadqOccupancy_);
    res.fp_storeq_occupancy = stats(fpStoreqOccupancy_);
    res.avg_rob_occupancy = res.rob_occupancy.mean;
    res.avg_mshr_occupancy = res.mshr_occupancy.mean;

    // Conservation ledger: each count captured at its source, so
    // auditRun() cross-checks genuinely independent counters.
    res.ledger.trace_instructions = ifu_.fetchedFromSource();
    res.ledger.retired = rob_.retired();
    res.ledger.icache_hits = ifu_.icache().hitRate().hits();
    res.ledger.icache_misses = ifu_.icache().hitRate().misses();
    res.ledger.icache_accesses = ifu_.icache().hitRate().total();
    res.ledger.dcache_hits = lsu_.dcache().hitRate().hits();
    res.ledger.dcache_misses = lsu_.dcache().hitRate().misses();
    res.ledger.dcache_accesses = lsu_.dcache().hitRate().total();
    res.ledger.mshr_allocations = lsu_.mshrs().allocations();
    res.ledger.mshr_releases = lsu_.mshrs().releases();
    res.ledger.mshr_outstanding = lsu_.mshrs().inUse();

    // Self-check before the result is trusted (AURORA_AUDIT=1; the
    // test suites enable it globally). A violation is a simulator
    // bug, not a property of the machine under study.
    if (auditEnabled())
        auditRun(res);
    return res;
}

} // namespace aurora::core
