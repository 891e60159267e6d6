/** @file Tests for the LRU and Random policies. */

#include <gtest/gtest.h>

#include "policies/lru.hh"
#include "policies/random.hh"
#include "tests/policy_test_util.hh"

using namespace rlr;
using namespace rlr::policies;

namespace
{

cache::AccessContext
touch(uint32_t set, uint32_t way, bool hit = true)
{
    cache::AccessContext ctx;
    ctx.set = set;
    ctx.way = way;
    ctx.hit = hit;
    ctx.type = trace::AccessType::Load;
    return ctx;
}

} // namespace

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru;
    lru.bind(test::tinyGeometry());
    for (uint32_t w = 0; w < 4; ++w)
        lru.onAccess(touch(0, w, false));
    // Way 0 is oldest.
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    EXPECT_EQ(lru.findVictim(miss, line_addrs), 0u);

    // Touch way 0; way 1 becomes LRU.
    lru.onAccess(touch(0, 0));
    EXPECT_EQ(lru.findVictim(miss, line_addrs), 1u);
}

TEST(Lru, RecencyRankConsistent)
{
    LruPolicy lru;
    lru.bind(test::tinyGeometry());
    for (uint32_t w = 0; w < 4; ++w)
        lru.onAccess(touch(1, w, false));
    EXPECT_EQ(lru.recencyRank(1, 0), 0u); // LRU
    EXPECT_EQ(lru.recencyRank(1, 3), 3u); // MRU
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy lru;
    lru.bind(test::tinyGeometry());
    for (uint32_t w = 0; w < 4; ++w) {
        lru.onAccess(touch(0, w, false));
        lru.onAccess(touch(1, 3 - w, false));
    }
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext m0;
    m0.set = 0;
    cache::AccessContext m1;
    m1.set = 1;
    EXPECT_EQ(lru.findVictim(m0, line_addrs), 0u);
    EXPECT_EQ(lru.findVictim(m1, line_addrs), 3u);
}

TEST(Lru, LruStackPropertyOnCyclicTrace)
{
    // An N+1-line cyclic access over an N-way set yields zero
    // hits under LRU (classic worst case).
    LruPolicy lru;
    std::vector<uint64_t> lines;
    for (int rep = 0; rep < 20; ++rep)
        for (uint64_t l = 0; l < 5; ++l)
            lines.push_back(l * 16); // same set (16 sets)
    const auto trace = test::loadTrace(lines);
    ml::OfflineSimulator osim(test::smallOffline(), &trace);
    const auto stats = osim.runPolicy(lru);
    EXPECT_EQ(stats.hits, 0u);
}

TEST(Lru, OverheadMatchesPaper)
{
    LruPolicy lru;
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    lru.bind(g);
    EXPECT_NEAR(lru.overhead().totalKiB(g), 16.0, 0.01);
}

TEST(RandomPolicyTest, Deterministic)
{
    RandomPolicy a(5), b(5);
    a.bind(test::tinyGeometry());
    b.bind(test::tinyGeometry());
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext ctx;
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.findVictim(ctx, line_addrs),
                  b.findVictim(ctx, line_addrs));
}

TEST(RandomPolicyTest, CoversAllWays)
{
    RandomPolicy p(9);
    p.bind(test::tinyGeometry());
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext ctx;
    std::set<uint32_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(p.findVictim(ctx, line_addrs));
    EXPECT_EQ(seen.size(), 4u);
}
