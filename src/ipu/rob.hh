/**
 * @file
 * Reorder buffer (§2.1, Smith & Pleszkun [13]).
 *
 * Instructions allocate an entry in program order at issue and retire
 * in order once complete. The buffer decouples completion from
 * retirement so cache misses behind a completed instruction do not
 * block it, and it bounds the number of instructions in flight —
 * "Reorder Buffer full" is one of the four Figure 6 stall categories.
 */

#ifndef AURORA_IPU_ROB_HH
#define AURORA_IPU_ROB_HH

#include "util/bounded_queue.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace aurora::ipu
{

/** In-order allocate / in-order retire completion tracker. */
class ReorderBuffer
{
  public:
    /**
     * @param entries     capacity (Table 1: 2 / 6 / 8).
     * @param retire_width maximum retirements per cycle.
     */
    ReorderBuffer(unsigned entries, unsigned retire_width)
        : slots_(entries), retireWidth_(retire_width)
    {
        AURORA_ASSERT(retire_width > 0, "retire width must be positive");
    }

    /** Free slots available this cycle. */
    std::size_t space() const { return slots_.space(); }

    bool full() const { return slots_.full(); }
    bool empty() const { return slots_.empty(); }
    std::size_t size() const { return slots_.size(); }
    unsigned capacity() const
    {
        return static_cast<unsigned>(slots_.capacity());
    }

    /**
     * Allocate the next entry for an instruction completing at
     * @p completes_at. Caller must check !full() first.
     */
    void
    allocate(Cycle completes_at)
    {
        AURORA_ASSERT(!slots_.full(), "ROB allocate when full");
        slots_.push(completes_at);
    }

    /**
     * Retire completed instructions in order, at most retire_width
     * per call. @return number retired.
     */
    unsigned
    retire(Cycle now)
    {
        unsigned n = 0;
        while (n < retireWidth_ && !slots_.empty() &&
               slots_.front() <= now) {
            slots_.pop();
            ++n;
            ++retired_;
        }
        return n;
    }

    /**
     * Earliest cycle retire() can pop an entry: the head's completion
     * cycle, or NEVER when empty.
     */
    Cycle nextRetire() const
    {
        return slots_.empty() ? NEVER : slots_.front();
    }

    /** Instructions retired in total. */
    Count retired() const { return retired_; }

  private:
    BoundedQueue<Cycle> slots_;
    unsigned retireWidth_;
    Count retired_ = 0;
};

} // namespace aurora::ipu

#endif // AURORA_IPU_ROB_HH
