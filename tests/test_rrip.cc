/** @file Tests for SRRIP / BRRIP / DRRIP. */

#include <gtest/gtest.h>

#include "policies/lru.hh"
#include "policies/rrip.hh"
#include "tests/policy_test_util.hh"

using namespace rlr;
using namespace rlr::policies;

namespace
{

cache::AccessContext
ctxAt(uint32_t set, uint32_t way, bool hit)
{
    cache::AccessContext c;
    c.set = set;
    c.way = way;
    c.hit = hit;
    c.type = trace::AccessType::Load;
    return c;
}

} // namespace

TEST(Srrip, InsertionAndPromotion)
{
    SrripPolicy p;
    p.bind(test::tinyGeometry());
    p.onAccess(ctxAt(0, 2, false));
    EXPECT_EQ(p.rrpv(0, 2), 2); // long re-reference on insert
    p.onAccess(ctxAt(0, 2, true));
    EXPECT_EQ(p.rrpv(0, 2), 0); // promoted on hit
}

TEST(Srrip, VictimIsDistant)
{
    SrripPolicy p;
    p.bind(test::tinyGeometry());
    // Fill 4 ways; all at RRPV 2.
    for (uint32_t w = 0; w < 4; ++w)
        p.onAccess(ctxAt(0, w, false));
    // Promote way 1.
    p.onAccess(ctxAt(0, 1, true));

    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    const uint32_t victim = p.findVictim(miss, line_addrs);
    EXPECT_NE(victim, 1u); // the promoted line survives aging
    // Aging must have pushed someone to max RRPV.
    EXPECT_EQ(p.rrpv(0, victim), 3);
}

TEST(Srrip, AgingPreservesOrder)
{
    SrripPolicy p;
    p.bind(test::tinyGeometry());
    for (uint32_t w = 0; w < 4; ++w)
        p.onAccess(ctxAt(0, w, false));
    p.onAccess(ctxAt(0, 0, true)); // rrpv 0
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    p.findVictim(miss, line_addrs);
    // After aging to find a victim, way 0 is still the youngest.
    EXPECT_LT(p.rrpv(0, 0), p.rrpv(0, 2));
}

TEST(Brrip, MostlyDistantInsertion)
{
    BrripPolicy p(2, 11);
    p.bind(test::tinyGeometry());
    int distant = 0;
    const int n = 640;
    for (int i = 0; i < n; ++i) {
        p.onAccess(ctxAt(static_cast<uint32_t>(i % 4),
                         static_cast<uint32_t>(i % 4), false));
        distant += p.rrpv(i % 4, i % 4) == 3;
    }
    // ~31/32 distant.
    EXPECT_GT(distant, n * 9 / 10);
    EXPECT_LT(distant, n); // but not all
}

TEST(Drrip, LeaderSetsAssigned)
{
    DrripPolicy p;
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    p.bind(g);
    int srrip = 0, brrip = 0, followers = 0;
    for (uint32_t s = 0; s < g.numSets(); ++s) {
        switch (p.setRole(s)) {
          case DrripPolicy::SetRole::SrripLeader:
            ++srrip;
            break;
          case DrripPolicy::SetRole::BrripLeader:
            ++brrip;
            break;
          case DrripPolicy::SetRole::Follower:
            ++followers;
            break;
        }
    }
    EXPECT_EQ(srrip, 32);
    EXPECT_EQ(brrip, 32);
    EXPECT_EQ(followers, static_cast<int>(g.numSets()) - 64);
}

TEST(Drrip, DuelingSteersPsel)
{
    DrripPolicy p;
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    p.bind(g);
    // Find an SRRIP leader and hammer it with misses: PSEL should
    // drift toward BRRIP.
    uint32_t srrip_leader = 0;
    for (uint32_t s = 0; s < g.numSets(); ++s) {
        if (p.setRole(s) == DrripPolicy::SetRole::SrripLeader) {
            srrip_leader = s;
            break;
        }
    }
    EXPECT_FALSE(p.brripSelected());
    for (int i = 0; i < 600; ++i)
        p.onAccess(ctxAt(srrip_leader, 0, false));
    EXPECT_TRUE(p.brripSelected());
}

TEST(Brrip, RetainsSubsetOnThrash)
{
    // Cyclic working set larger than one set: LRU/SRRIP-style
    // recency gets zero hits; BRRIP's bimodal insertion keeps a
    // lucky subset resident, which then hits every cycle.
    std::vector<uint64_t> lines;
    for (int rep = 0; rep < 200; ++rep)
        for (uint64_t l = 0; l < 6; ++l)
            lines.push_back(l * 16); // one set, 6 lines, 4 ways
    const auto trace = test::loadTrace(lines);
    ml::OfflineSimulator sim(test::smallOffline(), &trace);

    LruPolicy lru;
    const auto base = sim.runPolicy(lru);
    EXPECT_EQ(base.hits, 0u);
    BrripPolicy brrip(2, 7);
    const auto b = sim.runPolicy(brrip);
    EXPECT_GT(b.hits, 20u);
}

TEST(Rrip, OverheadScalesWithBits)
{
    SrripPolicy p2(2);
    SrripPolicy p3(3);
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    p2.bind(g);
    p3.bind(g);
    EXPECT_NEAR(p2.overhead().totalKiB(g), 8.0, 0.01);
    EXPECT_NEAR(p3.overhead().totalKiB(g), 12.0, 0.01);
}
