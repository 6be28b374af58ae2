/**
 * @file
 * Register-file scoreboard (§2.1, after Thornton's CDC 6600 [15]).
 *
 * Tracks, per architectural register, the cycle at which its value
 * becomes available to a dependent instruction and whether the pending
 * writer is a load. Forwarding paths from the ALU outputs and the
 * reorder buffer are folded into the ready cycles: an ALU result
 * produced at cycle t can feed an instruction issuing at t+1, so ALU
 * writers never stall the scoreboard in practice — loads (and only
 * loads) do, which is exactly the "Load stall" category of Figure 6.
 */

#ifndef AURORA_IPU_SCOREBOARD_HH
#define AURORA_IPU_SCOREBOARD_HH

#include <array>

#include "util/logging.hh"
#include "util/types.hh"

namespace aurora::ipu
{

/** Per-register ready-cycle tracker with load tagging. */
class Scoreboard
{
  public:
    Scoreboard() { reset(); }

    /**
     * Is @p reg available to an instruction issuing at @p now?
     * Register 0 (MIPS $zero) and NO_REG are always ready.
     */
    bool
    ready(RegIndex reg, Cycle now) const
    {
        if (reg == NO_REG || reg == 0)
            return true;
        AURORA_ASSERT(reg < 32, "register index out of range");
        return regs_[reg].ready <= now;
    }

    /** Is the pending writer of @p reg a load instruction? */
    bool
    pendingLoad(RegIndex reg, Cycle now) const
    {
        if (reg == NO_REG || reg == 0)
            return false;
        AURORA_ASSERT(reg < 32, "register index out of range");
        return regs_[reg].ready > now && regs_[reg].is_load;
    }

    /**
     * Record a new writer of @p reg whose value is usable from cycle
     * @p ready_at; @p is_load tags load writers for stall accounting.
     */
    void
    setWriter(RegIndex reg, Cycle ready_at, bool is_load)
    {
        if (reg == NO_REG || reg == 0)
            return;
        AURORA_ASSERT(reg < 32, "register index out of range");
        regs_[reg] = {ready_at, is_load};
    }

    /** Ready cycle of @p reg (0 when no pending writer). */
    Cycle
    readyAt(RegIndex reg) const
    {
        if (reg == NO_REG || reg == 0)
            return 0;
        AURORA_ASSERT(reg < 32, "register index out of range");
        return regs_[reg].ready;
    }

    /** Clear all pending writers. */
    void reset() { regs_.fill(EntryState{}); }

  private:
    struct EntryState
    {
        Cycle ready = 0;
        bool is_load = false;
    };

    std::array<EntryState, 32> regs_;
};

} // namespace aurora::ipu

#endif // AURORA_IPU_SCOREBOARD_HH
