/**
 * @file
 * The coalescing Write Cache (§2.3, Jouppi's write-cache policy [8]).
 *
 * A small fully-associative buffer of cache lines (Table 1: 2 / 4 / 8
 * lines of eight 32-bit words) that absorbs store traffic before it
 * reaches the BIU. Two behaviours make it effective: rewrites of the
 * same word coalesce (loop indices), and vector-like store bursts fill
 * a line that retires in a single BIU transaction.
 *
 * Write validation: because the MMU is off chip, a store may not
 * retire until it is known not to fault. The write cache doubles as a
 * four-entry micro-TLB: if the page field of the store address matches
 * any valid line's page, no fault is possible; otherwise an MMU
 * round trip must complete before the line may be evicted.
 */

#ifndef AURORA_MEM_WRITE_CACHE_HH
#define AURORA_MEM_WRITE_CACHE_HH

#include <vector>

#include "biu.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace aurora::mem
{

/** Write cache configuration. */
struct WriteCacheConfig
{
    /** Fully associative lines (Table 1: 2 / 4 / 8). */
    unsigned lines = 4;
    /** Line size in bytes (eight 32-bit words). */
    std::uint32_t line_bytes = 32;
    /** Page size for the write-validation micro-TLB (a power of two). */
    std::uint32_t page_bytes = 4096;
    /** Model the off-chip MMU validation round trip. */
    bool validate_writes = true;
};

/** Fully-associative coalescing write buffer with write validation. */
class WriteCache
{
  public:
    WriteCache(const WriteCacheConfig &config, Biu &biu);

    /**
     * Insert a store.
     *
     * A hit coalesces into an existing line. A miss allocates a line,
     * evicting the least recently written line to the BIU when the
     * cache is full. Unvalidated lines (page-field miss in the
     * micro-TLB) may not be evicted before their MMU round trip
     * returns, so their eviction write is posted at that later time.
     *
     * @param addr store address.
     * @param size store size in bytes.
     * @param now  current cycle.
     */
    void store(Addr addr, unsigned size, Cycle now);

    /**
     * Probe for load forwarding: true when every byte of the access
     * is currently buffered. Recorded in the Table 5 hit rate, which
     * "includes both load and store data accesses".
     */
    bool
    loadProbe(Addr addr, unsigned size)
    {
        const Addr line_base =
            addr & ~static_cast<Addr>(config_.line_bytes - 1);
        const unsigned word = (addr & (config_.line_bytes - 1)) / 4;
        const std::uint32_t mask = (size == 8 ? 0x3u : 0x1u) << word;
        Line *line = findLine(line_base);
        const bool hit = line && (line->valid_words & mask) == mask;
        hits_.record(hit);
        return hit;
    }

    /** Flush all valid lines to the BIU (drain at end of run). */
    void drain(Cycle now);

    /// @name Statistics
    /// @{
    /** Table 5 hit rate over load + store accesses. */
    const Ratio &hitRate() const { return hits_; }
    /** Store instructions seen. */
    Count stores() const { return stores_; }
    /** BIU write transactions issued (evictions + drain). */
    Count storeTransactions() const { return transactions_; }
    /** Micro-TLB page-match rate for stores. */
    const Ratio &validationRate() const { return validations_; }
    /** Valid lines currently buffered (occupancy sampling). */
    unsigned
    linesInUse() const
    {
        unsigned used = 0;
        for (const Line &line : lines_)
            if (line.valid)
                ++used;
        return used;
    }
    /// @}

    const WriteCacheConfig &config() const { return config_; }

  private:
    struct Line
    {
        Addr base = 0;           ///< line-aligned address
        std::uint32_t valid_words = 0; ///< bitmap of valid words
        Cycle last_write = 0;
        Cycle evict_ready = 0;   ///< earliest legal eviction cycle
        bool valid = false;
    };

    /** Find the valid line holding @p line_base, or nullptr. */
    Line *
    findLine(Addr line_base)
    {
        for (Line &line : lines_)
            if (line.valid && line.base == line_base)
                return &line;
        return nullptr;
    }

    /** True when any valid line lies in the same page as @p addr. */
    bool pageMatch(Addr addr) const;

    /** Evict @p line to the BIU. */
    void evict(Line &line, Cycle now);

    WriteCacheConfig config_;
    /** log2(page_bytes): pageMatch() shifts instead of dividing. */
    unsigned pageShift_ = 0;
    Biu &biu_;
    std::vector<Line> lines_;
    Ratio hits_;
    Ratio validations_;
    Count stores_ = 0;
    Count transactions_ = 0;
};

} // namespace aurora::mem

#endif // AURORA_MEM_WRITE_CACHE_HH
