/**
 * @file
 * Miss Status Holding Registers — the non-blocking cache mechanism.
 *
 * Each outstanding data-cache miss occupies one MSHR (Kroft's
 * lockup-free organization, [9]). Secondary misses to a line already
 * being fetched coalesce into the existing entry. When no MSHR is
 * free the LSU stalls until one retires — a machine with a single
 * MSHR therefore serializes all cache misses, which is the effect
 * Figure 7 quantifies.
 */

#ifndef AURORA_MEM_MSHR_HH
#define AURORA_MEM_MSHR_HH

#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace aurora::mem
{

/** File of miss status holding registers. */
class MshrFile
{
  public:
    /** One in-flight line fetch. */
    struct Entry
    {
        Addr line = 0;
        Cycle ready = 0;
        bool valid = false;
    };

    /** @param num_entries Table 1: 1 / 2 / 4. */
    explicit MshrFile(unsigned num_entries);

    /** Number of registers. */
    unsigned numEntries() const
    {
        return static_cast<unsigned>(entries_.size());
    }

    /** Occupied registers. */
    unsigned inUse() const { return inUse_; }

    /** True when no register is free. */
    bool full() const { return inUse_ == entries_.size(); }

    /**
     * Find the in-flight entry covering @p line, or nullptr. A match
     * is a secondary miss that coalesces (no new transaction).
     */
    const Entry *find(Addr line) const;

    /**
     * Reserve a register for @p line completing at @p ready.
     * Panics when full — the caller must stall instead.
     */
    void allocate(Addr line, Cycle ready);

    /** Release every register whose fetch completed by @p now. */
    void
    retire(Cycle now)
    {
        if (now < nextReady_) // none has: the per-cycle common case
            return;
        nextReady_ = NEVER;
        for (Entry &entry : entries_) {
            if (!entry.valid)
                continue;
            if (entry.ready <= now) {
                entry.valid = false;
                --inUse_;
                ++releases_;
            } else if (entry.ready < nextReady_) {
                nextReady_ = entry.ready;
            }
        }
    }

    /**
     * Release every occupied register (end-of-run drain). Keeps the
     * allocation/release ledger balanced for the post-run auditor.
     */
    void drainAll() { retire(NEVER); }

    /** Earliest completion among occupied registers (NEVER if none). */
    Cycle nextReady() const { return nextReady_; }

    /// @name Statistics
    /// @{
    Count allocations() const { return allocations_; }
    Count releases() const { return releases_; }
    Count coalesced() const { return coalesced_; }
    /// @}

    /** Record a coalesced secondary miss (caller found an entry). */
    void noteCoalesced() { ++coalesced_; }

  private:
    std::vector<Entry> entries_;
    unsigned inUse_ = 0;
    Cycle nextReady_ = NEVER;
    Count allocations_ = 0;
    Count releases_ = 0;
    Count coalesced_ = 0;
};

} // namespace aurora::mem

#endif // AURORA_MEM_MSHR_HH
