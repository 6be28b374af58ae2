#include "write_cache.hh"

#include <bit>

#include "util/logging.hh"

namespace aurora::mem
{

WriteCache::WriteCache(const WriteCacheConfig &config, Biu &biu)
    : config_(config), pageShift_(std::countr_zero(config.page_bytes)),
      biu_(biu)
{
    AURORA_ASSERT(config_.lines > 0, "write cache needs >= 1 line");
    AURORA_ASSERT(config_.line_bytes == 32,
                  "write cache lines are eight 32-bit words");
    AURORA_ASSERT(std::has_single_bit(config_.page_bytes),
                  "write cache page size must be a power of two");
    lines_.resize(config_.lines);
}

bool
WriteCache::pageMatch(Addr addr) const
{
    const Addr page = addr >> pageShift_;
    for (const Line &line : lines_)
        if (line.valid && line.base >> pageShift_ == page)
            return true;
    return false;
}

void
WriteCache::evict(Line &line, Cycle now)
{
    // Unvalidated lines wait for the MMU reply before they may leave
    // the chip; the write is posted at that later cycle.
    const Cycle when = line.evict_ready > now ? line.evict_ready : now;
    biu_.postWrite(when);
    ++transactions_;
    line.valid = false;
    line.valid_words = 0;
}

void
WriteCache::store(Addr addr, unsigned size, Cycle now)
{
    AURORA_ASSERT(size == 4 || size == 8, "store size must be 4 or 8");
    ++stores_;
    const Addr line_base =
        addr & ~static_cast<Addr>(config_.line_bytes - 1);
    const unsigned word =
        (addr & (config_.line_bytes - 1)) / 4;
    const std::uint32_t mask =
        (size == 8 ? 0x3u : 0x1u) << word;

    if (Line *line = findLine(line_base)) {
        hits_.record(true);
        line->valid_words |= mask;
        line->last_write = now;
        return;
    }
    hits_.record(false);

    // Write validation happens on the allocation path: a page match
    // against the resident lines proves the store cannot fault.
    Cycle evict_ready = now;
    if (config_.validate_writes) {
        const bool validated = pageMatch(addr);
        validations_.record(validated);
        if (!validated)
            evict_ready = biu_.roundTrip(now);
    }

    // Allocate, evicting the least recently written line if needed.
    Line *victim = nullptr;
    for (Line &line : lines_) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.last_write < victim->last_write)
            victim = &line;
    }
    if (victim->valid)
        evict(*victim, now);
    victim->valid = true;
    victim->base = line_base;
    victim->valid_words = mask;
    victim->last_write = now;
    victim->evict_ready = evict_ready;
}

void
WriteCache::drain(Cycle now)
{
    for (Line &line : lines_)
        if (line.valid)
            evict(line, now);
}

} // namespace aurora::mem
