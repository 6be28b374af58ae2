/**
 * @file
 * Unit tests for the direct-mapped cache tag store.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace
{

using aurora::Addr;
using aurora::mem::DirectMappedCache;

TEST(Cache, ColdCacheMisses)
{
    DirectMappedCache c(1024, 32);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_EQ(c.hitRate().total(), 1u);
    EXPECT_EQ(c.hitRate().hits(), 0u);
}

TEST(Cache, FillThenHit)
{
    DirectMappedCache c(1024, 32);
    c.fill(0x1000);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x101f)) << "same 32-byte line";
    EXPECT_FALSE(c.access(0x1020)) << "next line differs";
}

TEST(Cache, GeometryAccessors)
{
    DirectMappedCache c(2048, 32);
    EXPECT_EQ(c.sizeBytes(), 2048u);
    EXPECT_EQ(c.lineBytes(), 32u);
    EXPECT_EQ(c.numLines(), 64u);
    EXPECT_EQ(c.lineAddr(0x12345), 0x12340u);
}

TEST(Cache, DirectMappedConflict)
{
    DirectMappedCache c(1024, 32); // 32 lines
    c.fill(0x0000);
    EXPECT_TRUE(c.probe(0x0000));
    // Same index (addr + cache size), different tag: evicts.
    c.fill(0x0000 + 1024);
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x0400));
}

TEST(Cache, DifferentIndicesCoexist)
{
    DirectMappedCache c(1024, 32);
    c.fill(0x0000);
    c.fill(0x0020);
    c.fill(0x0040);
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x0020));
    EXPECT_TRUE(c.probe(0x0040));
}

TEST(Cache, ProbeDoesNotTouchStats)
{
    DirectMappedCache c(1024, 32);
    c.fill(0x40);
    c.probe(0x40);
    c.probe(0x80);
    EXPECT_EQ(c.hitRate().total(), 0u);
}

TEST(Cache, InvalidateRemovesLine)
{
    DirectMappedCache c(1024, 32);
    c.fill(0x200);
    c.invalidate(0x200);
    EXPECT_FALSE(c.probe(0x200));
}

TEST(Cache, InvalidateWrongTagIsNoop)
{
    DirectMappedCache c(1024, 32);
    c.fill(0x200);
    c.invalidate(0x200 + 1024); // same index, other tag
    EXPECT_TRUE(c.probe(0x200));
}

TEST(Cache, ResetClearsTagsAndStats)
{
    DirectMappedCache c(1024, 32);
    c.fill(0x40);
    c.access(0x40);
    c.reset();
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.hitRate().total(), 0u);
}

TEST(Cache, HitRateAccumulates)
{
    DirectMappedCache c(1024, 32);
    c.fill(0x40);
    for (int i = 0; i < 3; ++i)
        c.access(0x40);
    c.access(0x4000);
    EXPECT_EQ(c.hitRate().hits(), 3u);
    EXPECT_EQ(c.hitRate().total(), 4u);
    EXPECT_DOUBLE_EQ(c.hitRate().percent(), 75.0);
}

/** Geometry invariants over the paper's cache sizes. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(CacheGeometry, WorkingSetSmallerThanCacheAlwaysHits)
{
    const auto [size, line] = GetParam();
    DirectMappedCache c(size, line);
    // Touch every line once (fill), then every access must hit.
    for (Addr a = 0; a < size; a += line)
        c.fill(a);
    for (Addr a = 0; a < size; a += 4)
        EXPECT_TRUE(c.probe(a));
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, CacheGeometry,
    ::testing::Values(std::pair{1024u, 32u}, std::pair{2048u, 32u},
                      std::pair{4096u, 32u}, std::pair{16384u, 32u},
                      std::pair{32768u, 32u}, std::pair{65536u, 32u}));

/**
 * The shift index matches the division it replaced: for every line
 * size and capacity, the lines of one capacity-sized block all
 * coexist, the next block's first line evicts exactly the first, and
 * lineAddr() keeps its mask.
 */
TEST(Cache, IndexFollowsLineAndCapacity)
{
    for (const unsigned line : {16u, 32u, 64u}) {
        for (const unsigned kb : {1u, 2u, 4u, 8u}) {
            const unsigned size = kb * 1024;
            for (const Addr addr : {Addr{0}, Addr{0x1234}, Addr{0x7fff0008},
                                    Addr{0xffffffffu - 2 * 8192}}) {
                SCOPED_TRACE(::testing::Message()
                             << "line " << line << " size " << size
                             << " addr " << addr);
                DirectMappedCache c(size, line);
                for (Addr off = 0; off < size; off += line)
                    c.fill(addr + off);
                for (Addr off = 0; off < size; off += line)
                    ASSERT_TRUE(c.probe(addr + off)) << "+" << off;

                c.fill(addr + size);
                EXPECT_FALSE(c.probe(addr)) << "one capacity apart conflict";
                EXPECT_TRUE(c.probe(addr + size));
                EXPECT_TRUE(c.probe(addr + line)) << "one line apart coexist";

                EXPECT_EQ(c.lineAddr(addr), addr / line * line);
                EXPECT_EQ(c.lineAddr(addr | (line - 1)), addr / line * line);
            }
        }
    }
}

TEST(CacheDeath, NonPowerOfTwoSizePanics)
{
    EXPECT_DEATH(DirectMappedCache(1000, 32), "power of 2");
}

TEST(CacheDeath, LineLargerThanCachePanics)
{
    EXPECT_DEATH(DirectMappedCache(16, 32), "smaller");
}

} // namespace
