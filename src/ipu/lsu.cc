#include "lsu.hh"

#include "util/logging.hh"

namespace aurora::ipu
{

Lsu::Lsu(const LsuConfig &config,
         const mem::WriteCacheConfig &wc_config, mem::Biu &biu,
         mem::PrefetchUnit &prefetch)
    : config_(config), biu_(biu), prefetch_(prefetch),
      dcache_(config.dcache_bytes, config.line_bytes),
      writeCache_(wc_config, biu), mshrs_(config.mshr_entries),
      victims_(config.victim_lines, config.line_bytes)
{
    AURORA_ASSERT(config_.dcache_latency >= 1,
                  "data cache latency must be at least one cycle");
}

void
Lsu::landFills(Cycle now)
{
    while (!fills_.empty() && fills_.front().ready <= now) {
        if (const auto evicted = dcache_.fill(fills_.front().line))
            victims_.insert(*evicted, now);
        const Cycle busy_from =
            fills_.front().ready > now ? fills_.front().ready : now;
        const Cycle busy_until = busy_from + config_.fill_port_cycles;
        if (busy_until > portBusyUntil_)
            portBusyUntil_ = busy_until;
        fills_.erase(fills_.begin());
    }
}

Cycle
Lsu::load(Addr addr, unsigned size, Cycle now)
{
    AURORA_ASSERT(canAccept(now), "load issued while LSU busy");
    const Addr line = dcache_.lineAddr(addr);

    const bool wc_hit = writeCache_.loadProbe(addr, size);
    const bool dc_hit = dcache_.access(addr);

    Cycle ready;
    if (dc_hit || wc_hit) {
        ready = now + config_.dcache_latency;
    } else if (const auto *inflight = mshrs_.find(line)) {
        // Secondary miss: the line is already on its way; piggyback.
        mshrs_.noteCoalesced();
        ready = inflight->ready > now + config_.dcache_latency
                    ? inflight->ready
                    : now + config_.dcache_latency;
    } else if (victims_.probe(line, now)) {
        // Conflict miss caught by the victim cache: swap the line
        // back on chip without a BIU transaction.
        if (const auto evicted = dcache_.fill(line))
            victims_.insert(*evicted, now);
        ready = now + config_.dcache_latency +
                config_.victim_swap_cycles;
    } else {
        const auto res =
            prefetch_.missLookup(addr, now, /*is_instruction=*/false);
        ready = res.ready > now + config_.dcache_latency
                    ? res.ready
                    : now + config_.dcache_latency;
        fills_.push_back({res.ready, line});
    }
    mshrs_.allocate(line, ready);
    return ready;
}

void
Lsu::store(Addr addr, unsigned size, Cycle now)
{
    AURORA_ASSERT(canAccept(now), "store issued while LSU busy");
    // Write-through with write-allocate: the write cache owns the
    // off-chip traffic, so the allocation itself is charged there;
    // the data cache just starts tracking the line.
    if (!dcache_.access(addr)) {
        if (const auto evicted = dcache_.fill(addr))
            victims_.insert(*evicted, now);
    }
    writeCache_.store(addr, size, now);
    mshrs_.allocate(dcache_.lineAddr(addr),
                    now + config_.store_occupancy);
}

void
Lsu::drain(Cycle now)
{
    writeCache_.drain(now);
    // In-flight fills past the last cycle (store occupancy tails,
    // end-of-trace loads) are released here so the allocation ledger
    // balances: every MSHR allocated is eventually released.
    mshrs_.drainAll();
}

} // namespace aurora::ipu
