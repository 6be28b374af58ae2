/**
 * @file
 * The repository's two non-cryptographic hash primitives. Every
 * fingerprint, machine hash, derived seed, span id and fault plan is
 * built from these, so changing either changes golden journals and
 * seeds everywhere.
 */

#ifndef AURORA_UTIL_HASH_HH
#define AURORA_UTIL_HASH_HH

#include <cstdint>
#include <string_view>

namespace aurora::util
{

/** FNV-1a 64-bit digest of @p bytes, continuing from @p h. */
constexpr std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64 finalizer: a full-avalanche 64-bit mix. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace aurora::util

#endif // AURORA_UTIL_HASH_HH
