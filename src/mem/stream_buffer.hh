/**
 * @file
 * Jouppi-style prefetch stream buffers — the Aurora III Prefetch Unit.
 *
 * A small pool of FIFO stream buffers shared by the instruction and
 * data streams (the paper's small model has only two buffers total,
 * "which leads to thrashing between instruction and data references").
 * On a primary-cache miss the buffers are probed; a hit supplies the
 * line (possibly still in flight) and triggers fetch-ahead of further
 * sequential lines; a miss allocates the least-recently-used buffer,
 * which initially fetches only the single next line (§2.2).
 */

#ifndef AURORA_MEM_STREAM_BUFFER_HH
#define AURORA_MEM_STREAM_BUFFER_HH

#include <vector>

#include "biu.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace aurora::mem
{

/** Prefetch unit configuration. */
struct PrefetchConfig
{
    /** Number of stream buffers (Table 1: 2 / 4 / 8). */
    unsigned num_buffers = 4;
    /**
     * Prefetch lines per buffer. Two lines matches §5.2's statement
     * that the baseline's prefetch buffers cost ~20% of the 2 KB
     * instruction cache (4 buffers x 2 lines x 320 RBE / 12000 RBE).
     */
    unsigned depth = 2;
    /** Line size in bytes (shared with the caches). */
    std::uint32_t line_bytes = 32;
    /** Master enable (Figure 5 removes prefetching entirely). */
    bool enabled = true;
};

/** Pool of sequential-stream prefetch buffers in front of the BIU. */
class PrefetchUnit
{
  public:
    /** Outcome of probing the buffers on a primary-cache miss. */
    struct Result
    {
        /** The missing line was found in a buffer. */
        bool hit = false;
        /** Cycle the line is (or was) available on chip. */
        Cycle ready = 0;
    };

    PrefetchUnit(const PrefetchConfig &config, Biu &biu);

    /**
     * Handle a primary-cache miss for the line containing @p addr.
     *
     * On a buffer hit the entry is consumed, stale entries ahead of it
     * are shifted out, and the buffer tops itself up with further
     * sequential prefetches (bandwidth permitting). On a miss the LRU
     * buffer is re-allocated to the new stream and the demand line is
     * fetched from the BIU.
     *
     * @param addr            missing address.
     * @param now             current cycle.
     * @param is_instruction  I-stream vs D-stream (statistics + the
     *                        thrashing behaviour both flow from the
     *                        shared pool).
     * @return hit/ready outcome; ready covers the full demand fetch
     *         when the probe missed.
     */
    Result missLookup(Addr addr, Cycle now, bool is_instruction);

    /** I-stream prefetch hit rate (Table 3). */
    const Ratio &instHitRate() const { return iHits_; }
    /** D-stream prefetch hit rate (Table 4). */
    const Ratio &dataHitRate() const { return dHits_; }
    /** Prefetched lines held across all active buffers. */
    unsigned
    entriesInFlight() const
    {
        unsigned entries = 0;
        for (const Buffer &buf : buffers_)
            if (buf.active)
                entries += static_cast<unsigned>(buf.entries.size());
        return entries;
    }

    const PrefetchConfig &config() const { return config_; }

  private:
    struct Entry
    {
        Addr line = 0;
        Cycle ready = 0;
    };

    struct Buffer
    {
        /** At most depth lines (a vector, as in Biu). */
        std::vector<Entry> entries;
        Addr next_line = 0;   ///< next sequential line to prefetch
        Cycle last_used = 0;
        bool active = false;
    };

    /** Fill @p buf with sequential prefetches while bandwidth lasts. */
    void topUp(Buffer &buf, Cycle now);

    PrefetchConfig config_;
    Biu &biu_;
    std::vector<Buffer> buffers_;
    Ratio iHits_;
    Ratio dHits_;
};

} // namespace aurora::mem

#endif // AURORA_MEM_STREAM_BUFFER_HH
