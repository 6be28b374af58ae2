/**
 * @file
 * Load-Store Unit (§2.3).
 *
 * All memory operations flow through the LSU: the IEU generates the
 * address and hands it over together with a reorder-buffer tag. The
 * external direct-mapped data cache is pipelined with a three-cycle
 * hit latency and single-cycle initiation. Misses allocate Miss
 * Status Holding Registers; an MSHR is reserved for *every* memory
 * instruction active in the LSU pipeline (hits included), so a single
 * MSHR serializes all memory operations — the blocking-cache effect
 * of Figure 7. Stores are write-through into the coalescing write
 * cache; load misses probe the stream buffers before going to the
 * BIU, and returned lines occupy the cache data busses while filling
 * ("LSU busy" stalls in Figure 6).
 */

#ifndef AURORA_IPU_LSU_HH
#define AURORA_IPU_LSU_HH

#include <vector>

#include "mem/biu.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"
#include "mem/stream_buffer.hh"
#include "mem/victim_cache.hh"
#include "mem/write_cache.hh"
#include "util/types.hh"

namespace aurora::ipu
{

/** LSU and external data cache parameters. */
struct LsuConfig
{
    /** External data cache capacity (Table 1: 16/32/64 KB). */
    std::uint32_t dcache_bytes = 32 * 1024;
    /** Cache line size. */
    std::uint32_t line_bytes = 32;
    /** Pipelined data cache hit latency. */
    Cycle dcache_latency = 3;
    /** Miss status holding registers (Table 1: 1/2/4). */
    unsigned mshr_entries = 2;
    /** Cycles a returning line holds the cache data busses. */
    Cycle fill_port_cycles = 2;
    /** MSHR hold time for a store (write-cache insertion). */
    Cycle store_occupancy = 1;
    /**
     * Victim cache entries behind the data cache (0 disables; the
     * Aurora III shipped stream buffers instead — DESIGN.md §6
     * ablation).
     */
    unsigned victim_lines = 0;
    /** Extra cycles for the victim-cache swap on a hit. */
    Cycle victim_swap_cycles = 1;
};

/** The load/store unit with its external data cache. */
class Lsu
{
  public:
    Lsu(const LsuConfig &config,
        const mem::WriteCacheConfig &wc_config, mem::Biu &biu,
        mem::PrefetchUnit &prefetch);

    /**
     * Per-cycle housekeeping: retire completed MSHRs and apply cache
     * fills (which block the data busses for fill_port_cycles).
     */
    void
    tick(Cycle now)
    {
        mshrs_.retire(now);
        if (!fills_.empty() && fills_.front().ready <= now)
            landFills(now);
    }

    /**
     * Earliest cycle >= @p now at which tick() or canAccept() can
     * change: an MSHR release, the head fill landing, or the data
     * busses freeing. NEVER when nothing is pending.
     */
    Cycle
    nextEvent(Cycle now) const
    {
        Cycle next = mshrs_.nextReady();
        if (!fills_.empty() && fills_.front().ready < next)
            next = fills_.front().ready;
        if (portBusyUntil_ > now && portBusyUntil_ < next)
            next = portBusyUntil_;
        return next;
    }

    /**
     * Can a new memory operation start this cycle? Requires a free
     * MSHR and an idle cache port.
     */
    bool
    canAccept(Cycle now) const
    {
        return !mshrs_.full() && now >= portBusyUntil_;
    }

    /** Is the port blocked by a line fill right now? */
    bool portBusy(Cycle now) const { return now < portBusyUntil_; }

    /**
     * Start a load. Caller must have checked canAccept().
     * @return cycle the data is available to dependent instructions.
     */
    Cycle load(Addr addr, unsigned size, Cycle now);

    /** Start a store. Caller must have checked canAccept(). */
    void store(Addr addr, unsigned size, Cycle now);

    /** Flush the write cache (end of simulation). */
    void drain(Cycle now);

    /// @name Component access (statistics)
    /// @{
    const mem::DirectMappedCache &dcache() const { return dcache_; }
    const mem::WriteCache &writeCache() const { return writeCache_; }
    const mem::MshrFile &mshrs() const { return mshrs_; }
    const mem::VictimCache &victims() const { return victims_; }
    /// @}

    const LsuConfig &config() const { return config_; }

  private:
    struct PendingFill
    {
        Cycle ready = 0;
        Addr line = 0;
    };

    /** The tick() work of the fills that have landed by @p now. */
    void landFills(Cycle now);

    LsuConfig config_;
    mem::Biu &biu_;
    mem::PrefetchUnit &prefetch_;
    mem::DirectMappedCache dcache_;
    mem::WriteCache writeCache_;
    mem::MshrFile mshrs_;
    mem::VictimCache victims_;
    /** Line fills in flight, oldest first (a vector, as in Biu). */
    std::vector<PendingFill> fills_;
    Cycle portBusyUntil_ = 0;
};

} // namespace aurora::ipu

#endif // AURORA_IPU_LSU_HH
