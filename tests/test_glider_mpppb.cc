/** @file Tests for the Glider and MPPPB baselines. */

#include <gtest/gtest.h>

#include "policies/glider.hh"
#include "policies/mpppb.hh"
#include "tests/policy_test_util.hh"

using namespace rlr;
using namespace rlr::policies;

TEST(Glider, ColdPredictorIsFriendly)
{
    GliderPolicy p;
    p.bind(test::tinyGeometry());
    // Zero weights >= threshold 0 -> friendly by default.
    EXPECT_TRUE(p.predictsFriendly(0x1234));
    EXPECT_EQ(p.decisionValue(0x1234), 0);
}

TEST(Glider, LearnsAverseStreamingPc)
{
    GliderConfig cfg;
    cfg.sampled_sets = 16;
    GliderPolicy p(cfg);
    std::vector<uint64_t> lines;
    for (uint64_t i = 0; i < 4000; ++i)
        lines.push_back(i); // never reused
    const auto trace = test::loadTrace(lines, 0xbeef);
    ml::OfflineSimulator sim(test::smallOffline(), &trace);
    sim.runPolicy(p);
    EXPECT_FALSE(p.predictsFriendly(0xbeef));
    EXPECT_LT(p.decisionValue(0xbeef), 0);
}

TEST(Glider, KeepsReuseHeavyPcFriendly)
{
    GliderConfig cfg;
    cfg.sampled_sets = 16;
    GliderPolicy p(cfg);
    std::vector<uint64_t> lines;
    for (int rep = 0; rep < 400; ++rep)
        for (uint64_t l = 0; l < 8; ++l)
            lines.push_back(l);
    const auto trace = test::loadTrace(lines, 0xf00d);
    ml::OfflineSimulator sim(test::smallOffline(), &trace);
    const auto stats = sim.runPolicy(p);
    EXPECT_TRUE(p.predictsFriendly(0xf00d));
    EXPECT_GT(stats.hitRate(), 0.9);
}

TEST(Glider, MixedWorkloadBeatsChanceProtection)
{
    GliderConfig cfg;
    cfg.sampled_sets = 16;
    GliderPolicy p(cfg);
    trace::LlcTrace t;
    uint64_t scan = 1000;
    for (int rep = 0; rep < 600; ++rep) {
        for (uint64_t l = 0; l < 2; ++l)
            t.append({0x400, l * 64, trace::AccessType::Load, 0});
        t.append({0x900, (scan++) * 64,
                  trace::AccessType::Load, 0});
    }
    ml::OfflineSimulator sim(test::smallOffline(), &t);
    const auto stats = sim.runPolicy(p);
    EXPECT_GT(stats.hitRate(), 0.55);
}

TEST(Glider, OverheadMatchesPaper)
{
    GliderPolicy p;
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    p.bind(g);
    EXPECT_NEAR(p.overhead().totalKiB(g), 61.6, 0.2);
    EXPECT_TRUE(p.usesPc());
}

TEST(Mpppb, ColdPredictionNeutral)
{
    MpppbPolicy p;
    p.bind(test::tinyGeometry());
    EXPECT_EQ(p.predict(0x400, 0x1000, trace::AccessType::Load),
              0);
}

TEST(Mpppb, TrainsPositiveOnReuse)
{
    MpppbPolicy p;
    p.bind(test::tinyGeometry());
    cache::AccessContext c;
    c.set = 0;
    c.way = 0;
    c.pc = 0x777;
    c.full_addr = 0x4000;
    c.type = trace::AccessType::Load;
    c.hit = false;
    p.onAccess(c);
    c.hit = true;
    for (int i = 0; i < 10; ++i)
        p.onAccess(c);
    EXPECT_GT(p.predict(0x777, 0x4000, trace::AccessType::Load),
              0);
}

TEST(Mpppb, TrainsNegativeOnDeadEviction)
{
    MpppbPolicy p;
    p.bind(test::tinyGeometry());
    cache::AccessContext c;
    c.set = 0;
    c.way = 1;
    c.pc = 0x888;
    c.full_addr = 0x9000;
    c.type = trace::AccessType::Load;
    c.hit = false;
    for (int i = 0; i < 10; ++i) {
        p.onAccess(c);
        p.onEviction(0, 1,
                     cache::BlockView{true, false, false, 0x9000});
    }
    EXPECT_LT(p.predict(0x888, 0x9000, trace::AccessType::Load),
              0);
}

TEST(Mpppb, BypassesConfidentlyDeadFills)
{
    MpppbConfig cfg;
    cfg.bypass_margin = 10;
    MpppbPolicy p(cfg);
    p.bind(test::tinyGeometry());
    cache::AccessContext c;
    c.set = 0;
    c.pc = 0x999;
    c.full_addr = 0xa000;
    c.type = trace::AccessType::Load;
    c.hit = false;
    // Detrain heavily.
    for (int i = 0; i < 20; ++i) {
        c.way = 2;
        p.onAccess(c);
        p.onEviction(0, 2,
                     cache::BlockView{true, false, false, 0xa000});
    }
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss = c;
    EXPECT_EQ(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);
    // Writebacks never bypass.
    miss.type = trace::AccessType::Writeback;
    EXPECT_NE(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);
}

TEST(Mpppb, ProtectsHotLinesOnScanMix)
{
    MpppbPolicy p;
    trace::LlcTrace t;
    uint64_t scan = 1000;
    for (int rep = 0; rep < 600; ++rep) {
        for (uint64_t l = 0; l < 2; ++l)
            t.append({0x400, l * 64, trace::AccessType::Load, 0});
        t.append({0x900, (scan++) * 64,
                  trace::AccessType::Load, 0});
    }
    ml::OfflineSimulator sim(test::smallOffline(), &t);
    const auto stats = sim.runPolicy(p);
    EXPECT_GT(stats.hitRate(), 0.55);
}

TEST(Mpppb, OverheadNearPaper)
{
    MpppbPolicy p;
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    p.bind(g);
    EXPECT_NEAR(p.overhead().totalKiB(g), 28.0, 1.5);
}
