/**
 * @file
 * Direct-mapped cache tag store.
 *
 * Trace-driven timing simulation only needs hit/miss decisions, so the
 * cache holds tags, not data. Both Aurora III primary caches are
 * direct-mapped: the on-chip pre-decoded instruction cache and the
 * external pipelined data cache (16/32/64 KB SRAM chips).
 */

#ifndef AURORA_MEM_CACHE_HH
#define AURORA_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace aurora::mem
{

/** Direct-mapped, write-back-free tag array. */
class DirectMappedCache
{
  public:
    /**
     * @param size_bytes total capacity; must be a power of two.
     * @param line_bytes line size; must be a power of two.
     */
    DirectMappedCache(std::uint32_t size_bytes,
                      std::uint32_t line_bytes);

    /** Line size in bytes. */
    std::uint32_t lineBytes() const { return lineBytes_; }
    /** Total capacity in bytes. */
    std::uint32_t sizeBytes() const { return sizeBytes_; }
    /** Number of lines. */
    std::uint32_t numLines() const { return numLines_; }

    /** Line-aligned address containing @p addr. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(lineBytes_ - 1);
    }

    /**
     * Look up @p addr, recording the access in the hit-rate stats.
     * Does not modify the tag array.
     */
    bool
    access(Addr addr)
    {
        const bool hit = probe(addr);
        hits_.record(hit);
        return hit;
    }

    /** Look up @p addr without recording statistics. */
    bool
    probe(Addr addr) const
    {
        const std::uint32_t idx = indexOf(addr);
        return valid_[idx] && tags_[idx] == lineAddr(addr);
    }

    /**
     * Install the line containing @p addr.
     * @return the line address evicted from the slot, if any (used
     *         to feed a victim cache).
     */
    std::optional<Addr> fill(Addr addr);

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    /** Invalidate everything. */
    void reset();

    /** Lookup statistics since construction/reset. */
    const Ratio &hitRate() const { return hits_; }

  private:
    std::uint32_t
    indexOf(Addr addr) const
    {
        return (addr >> lineShift_) & (numLines_ - 1);
    }

    std::uint32_t sizeBytes_;
    std::uint32_t lineBytes_;
    unsigned lineShift_; ///< log2(lineBytes_), so indexOf() never divides
    std::uint32_t numLines_;
    std::vector<Addr> tags_;   ///< line-aligned address per slot
    std::vector<bool> valid_;
    Ratio hits_;
};

} // namespace aurora::mem

#endif // AURORA_MEM_CACHE_HH
