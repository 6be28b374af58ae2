#include "cache.hh"

#include <bit>

#include "util/logging.hh"

namespace aurora::mem
{

namespace
{

bool
isPow2(std::uint32_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

DirectMappedCache::DirectMappedCache(std::uint32_t size_bytes,
                                     std::uint32_t line_bytes)
    : sizeBytes_(size_bytes), lineBytes_(line_bytes),
      lineShift_(static_cast<unsigned>(std::countr_zero(line_bytes))),
      numLines_(size_bytes / line_bytes)
{
    AURORA_ASSERT(isPow2(size_bytes), "cache size must be a power of 2");
    AURORA_ASSERT(isPow2(line_bytes), "line size must be a power of 2");
    AURORA_ASSERT(size_bytes >= line_bytes,
                  "cache smaller than one line");
    tags_.assign(numLines_, 0);
    valid_.assign(numLines_, false);
}

std::optional<Addr>
DirectMappedCache::fill(Addr addr)
{
    const std::uint32_t idx = indexOf(addr);
    std::optional<Addr> evicted;
    if (valid_[idx] && tags_[idx] != lineAddr(addr))
        evicted = tags_[idx];
    tags_[idx] = lineAddr(addr);
    valid_[idx] = true;
    return evicted;
}

void
DirectMappedCache::invalidate(Addr addr)
{
    const std::uint32_t idx = indexOf(addr);
    if (valid_[idx] && tags_[idx] == lineAddr(addr))
        valid_[idx] = false;
}

void
DirectMappedCache::reset()
{
    valid_.assign(numLines_, false);
    hits_.reset();
}

} // namespace aurora::mem
