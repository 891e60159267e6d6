/** @file Tests for KPC-R, EVA, and PDP. */

#include <gtest/gtest.h>

#include "policies/eva.hh"
#include "policies/kpc_r.hh"
#include "policies/pdp.hh"
#include "tests/policy_test_util.hh"

using namespace rlr;
using namespace rlr::policies;

TEST(KpcR, NoPc)
{
    KpcRPolicy p;
    EXPECT_FALSE(p.usesPc());
}

TEST(KpcR, PrefetchHitNotFullyPromoted)
{
    KpcRPolicy p;
    p.bind(test::tinyGeometry());
    cache::AccessContext fill;
    fill.set = 0;
    fill.way = 0;
    fill.hit = false;
    fill.type = trace::AccessType::Prefetch;
    p.onAccess(fill);

    cache::AccessContext pf_hit = fill;
    pf_hit.hit = true;
    p.onAccess(pf_hit);
    // Partial promotion: still near-distant, not MRU.
    EXPECT_EQ(p.rrpv(0, 0), 2);

    cache::AccessContext demand_hit = pf_hit;
    demand_hit.type = trace::AccessType::Load;
    p.onAccess(demand_hit);
    EXPECT_EQ(p.rrpv(0, 0), 0);
}

TEST(KpcR, AdaptsInsertionToPhase)
{
    KpcRPolicy p;
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    p.bind(g);
    // Default: long insertion (not distant).
    EXPECT_FALSE(p.distantSelected());
}

TEST(KpcR, RunsOnTrace)
{
    KpcRPolicy p;
    std::vector<uint64_t> lines;
    for (int rep = 0; rep < 50; ++rep)
        for (uint64_t l = 0; l < 10; ++l)
            lines.push_back(l);
    const auto trace = test::loadTrace(lines);
    ml::OfflineSimulator sim(test::smallOffline(), &trace);
    const auto stats = sim.runPolicy(p);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.accesses, lines.size());
}

TEST(Eva, ColdStartActsLikeLru)
{
    EvaPolicy p;
    p.bind(test::tinyGeometry());
    // Cold ranking: older age bucket = lower rank.
    EXPECT_LT(p.rank(false, 5), p.rank(false, 1));
    // Not-yet-reused is cheaper to evict than reused at same age.
    EXPECT_LT(p.rank(false, 3), p.rank(true, 3));
}

TEST(Eva, ReusedLinesGainValueAfterUpdate)
{
    EvaConfig cfg;
    cfg.update_interval = 256;
    EvaPolicy p(cfg);
    // Reuse-heavy trace: reused-class EVA at low age should beat
    // the non-reused class.
    std::vector<uint64_t> lines;
    for (int rep = 0; rep < 300; ++rep)
        for (uint64_t l = 0; l < 3; ++l)
            lines.push_back(l);
    const auto trace = test::loadTrace(lines);
    ml::OfflineSimulator sim(test::smallOffline(), &trace);
    const auto stats = sim.runPolicy(p);
    EXPECT_GT(stats.hitRate(), 0.8);
    EXPECT_GE(p.rank(true, 0), p.rank(false, 0));
}

TEST(Pdp, ProtectsUntilDistance)
{
    PdpConfig cfg;
    cfg.initial_pd = 8;
    cfg.allow_bypass = false;
    PdpPolicy p(cfg);
    p.bind(test::tinyGeometry());
    EXPECT_EQ(p.protectingDistance(), 8u);
}

TEST(Pdp, BypassesWhenAllProtected)
{
    PdpConfig cfg;
    cfg.initial_pd = 1000; // everything protected
    cfg.allow_bypass = true;
    PdpPolicy p(cfg);
    p.bind(test::tinyGeometry());
    // Fill the set.
    for (uint32_t w = 0; w < 4; ++w) {
        cache::AccessContext c;
        c.set = 0;
        c.way = w;
        c.hit = false;
        c.type = trace::AccessType::Load;
        p.onAccess(c);
    }
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    miss.type = trace::AccessType::Load;
    EXPECT_EQ(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);
    // Writebacks may not bypass.
    miss.type = trace::AccessType::Writeback;
    EXPECT_NE(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);
}

TEST(Pdp, PdAdaptsToReuseDistance)
{
    PdpConfig cfg;
    cfg.update_interval = 512;
    cfg.initial_pd = 200;
    PdpPolicy p(cfg);
    // All reuse at distance 3 (per set): PD should settle near a
    // small value after an update.
    std::vector<uint64_t> lines;
    for (int rep = 0; rep < 400; ++rep)
        for (uint64_t l = 0; l < 3; ++l)
            lines.push_back(l); // set-access distance 3
    const auto trace = test::loadTrace(lines);
    ml::OfflineSimulator sim(test::smallOffline(), &trace);
    sim.runPolicy(p);
    EXPECT_LE(p.protectingDistance(), 16u);
    EXPECT_GE(p.protectingDistance(), 1u);
}
