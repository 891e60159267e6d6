/** @file Tests for the RLR policy (the paper's Section IV). */

#include <gtest/gtest.h>

#include "core/rlr.hh"
#include "policies/lru.hh"
#include "tests/policy_test_util.hh"

using namespace rlr;
using namespace rlr::core;

namespace
{

cache::AccessContext
acc(uint32_t set, uint32_t way, bool hit,
    trace::AccessType type = trace::AccessType::Load,
    uint8_t cpu = 0)
{
    cache::AccessContext c;
    c.set = set;
    c.way = way;
    c.hit = hit;
    c.type = type;
    c.cpu = cpu;
    return c;
}

} // namespace

TEST(Rlr, PriorityComposition)
{
    RlrConfig cfg;
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());
    // Fresh demand fill: age 0 (protected), no hit, type != PF:
    // P = 8*1 + 1 + 0 = 9.
    p.onAccess(acc(0, 0, false));
    EXPECT_EQ(p.linePriority(0, 0), 9u);
    // Demand hit adds the hit bit: 8 + 1 + 1 = 10.
    p.onAccess(acc(0, 0, true));
    EXPECT_EQ(p.linePriority(0, 0), 10u);
    // Prefetch fill: 8 + 0 + 0 = 8.
    p.onAccess(acc(0, 1, false, trace::AccessType::Prefetch));
    EXPECT_EQ(p.linePriority(0, 1), 8u);
}

TEST(Rlr, PrefetchedLineLosesTypePriorityUntilReuse)
{
    RlrPolicy p;
    p.bind(test::tinyGeometry());
    p.onAccess(acc(0, 0, false, trace::AccessType::Prefetch));
    EXPECT_EQ(p.linePriority(0, 0), 8u);
    // Demand reuse flips the type register and sets the hit bit.
    p.onAccess(acc(0, 0, true, trace::AccessType::Load));
    EXPECT_EQ(p.linePriority(0, 0), 10u);
}

TEST(Rlr, VictimIsLowestPriority)
{
    RlrPolicy p;
    p.bind(test::tinyGeometry());
    p.onAccess(acc(0, 0, false)); // demand, P=9
    p.onAccess(acc(0, 1, false, trace::AccessType::Prefetch)); // 8
    p.onAccess(acc(0, 2, false)); // 9
    p.onAccess(acc(0, 3, false)); // 9
    p.onAccess(acc(0, 0, true));  // 10
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    EXPECT_EQ(p.findVictim(miss, line_addrs), 1u);
}

TEST(Rlr, AgeExpiryDropsProtection)
{
    // Optimized variant: ages tick every 8 set misses via the
    // 3-bit per-set counter.
    RlrConfig cfg;
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());
    p.onAccess(acc(0, 0, false));
    EXPECT_EQ(p.linePriority(0, 0), 9u);
    // 32 misses to the set (to other ways) push age to 4 ticks,
    // past the default RD.
    for (int i = 0; i < 32; ++i)
        p.onAccess(acc(0, 1u + static_cast<uint32_t>(i % 3),
                       false));
    EXPECT_EQ(p.linePriority(0, 0), 1u); // protection expired
}

TEST(Rlr, RdUpdatesAfter32DemandHits)
{
    RlrConfig cfg;
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());
    const uint64_t rd0 = p.reuseDistance();
    // Interleave: 8 misses (2 ticks is enough to age) then a hit,
    // 32 times, so samples are nonzero.
    for (int round = 0; round < 32; ++round) {
        for (int m = 0; m < 16; ++m)
            p.onAccess(acc(0, static_cast<uint32_t>(m % 3),
                           false));
        p.onAccess(acc(0, 3, true));
    }
    // RD must have been recomputed (rd_update_hits = 32).
    EXPECT_NE(p.reuseDistance(), rd0);
    EXPECT_GT(p.reuseDistance(), 1u);
}

TEST(Rlr, AgeDominatesTypeInVictimChoice)
{
    // A prefetched line whose age exceeded RD (P = 0) loses to a
    // freshly prefetched, still-protected line (P = 8).
    RlrPolicy p;
    p.bind(test::tinyGeometry());
    p.onAccess(acc(0, 0, false, trace::AccessType::Prefetch));
    for (int i = 0; i < 16; ++i)
        p.onAccess(acc(0, 2, false)); // age way 0 past RD
    p.onAccess(acc(0, 1, false, trace::AccessType::Prefetch));
    p.onAccess(acc(0, 3, false));
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    EXPECT_EQ(p.findVictim(miss, line_addrs), 0u);
}

TEST(Rlr, EqualPriorityEqualAgeBreaksTowardLowestWay)
{
    // Two prefetched lines filled back-to-back: same priority,
    // same (approximate) recency -> lowest way index, per the
    // optimized design.
    RlrPolicy p;
    p.bind(test::tinyGeometry());
    p.onAccess(acc(0, 2, false, trace::AccessType::Prefetch));
    p.onAccess(acc(0, 3, false, trace::AccessType::Prefetch));
    p.onAccess(acc(0, 0, false)); // demand, higher priority
    p.onAccess(acc(0, 1, false));
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    EXPECT_EQ(p.findVictim(miss, line_addrs), 2u);
}

TEST(Rlr, UnoptimizedUsesExactRecency)
{
    RlrConfig cfg = RlrConfig::unoptimized();
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());
    for (uint32_t w = 0; w < 4; ++w)
        p.onAccess(acc(0, w, false));
    // With RD = 1, ways 0 and 1 have aged past protection and tie
    // at the lowest priority; the most recently used of the two
    // (way 1) is evicted, per the paper's recency tie-break.
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    EXPECT_EQ(p.findVictim(miss, line_addrs), 1u);
}

TEST(Rlr, AblationFlagsChangePriorities)
{
    RlrConfig nohit;
    nohit.use_hit_priority = false;
    RlrPolicy p1(nohit);
    p1.bind(test::tinyGeometry());
    p1.onAccess(acc(0, 0, false));
    p1.onAccess(acc(0, 0, true));
    EXPECT_EQ(p1.linePriority(0, 0), 9u); // no +1 for the hit

    RlrConfig notype;
    notype.use_type_priority = false;
    RlrPolicy p2(notype);
    p2.bind(test::tinyGeometry());
    p2.onAccess(acc(0, 0, false));
    EXPECT_EQ(p2.linePriority(0, 0), 8u); // no +1 for non-PF
}

TEST(Rlr, BypassWhenAllProtected)
{
    RlrConfig cfg;
    cfg.allow_bypass = true;
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());
    for (uint32_t w = 0; w < 4; ++w)
        p.onAccess(acc(0, w, false));
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    miss.type = trace::AccessType::Load;
    EXPECT_EQ(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);
    // Writebacks never bypass.
    miss.type = trace::AccessType::Writeback;
    EXPECT_NE(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);
}

TEST(Rlr, OptimizedBypassUsesScaledAges)
{
    // Regression: findVictim's bypass check used to compare raw
    // optimized ages (0..3) against RD in set-miss units, so any
    // RD > age_max_ bypassed nearly every fill. Scaled line ages
    // above RD must suppress the bypass.
    RlrConfig cfg;
    cfg.allow_bypass = true;
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());

    // Drive RD above the raw age maximum (3): rounds of two
    // misses (ways 1/2) and a demand hit (way 3) produce scaled
    // preuse samples of 2,4,6,8 repeating, so RD settles at
    // 4 * avg = 20 set misses after 32 samples.
    for (int round = 0; round < 32; ++round) {
        p.onAccess(acc(0, 1, false));
        p.onAccess(acc(0, 2, false));
        p.onAccess(acc(0, 3, true));
    }
    const uint64_t rd = p.reuseDistance();
    ASSERT_GT(rd, 3u) << "test needs RD beyond the raw age range";
    ASSERT_LT(rd, 24u) << "test needs RD below saturated scaled age";

    // Saturate ways 1..3 (4 ticks, scaled age 24) with misses
    // that only ever fill way 0, so the aged lines stay resident.
    for (int m = 0; m < 32; ++m)
        p.onAccess(acc(0, 0, false));

    // Scaled ages (24) exceed RD: a fill must evict, not bypass.
    // With the unit-mismatch bug the raw ages (3) stayed below RD
    // and every fill bypassed.
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    miss.type = trace::AccessType::Load;
    EXPECT_NE(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);
}

TEST(Rlr, UnoptimizedBypassPath)
{
    RlrConfig cfg = RlrConfig::unoptimized();
    cfg.allow_bypass = true;
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());

    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    miss.type = trace::AccessType::Load;

    // Freshly filled set: ages 3,2,1,0 in access units with
    // RD = 1, so ways 0 and 1 have expired -> no bypass.
    for (uint32_t w = 0; w < 4; ++w)
        p.onAccess(acc(0, w, false));
    EXPECT_NE(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);

    // Round-robin demand hits: every line's preuse distance is 4
    // accesses, so after 32 samples RD = 2 * 4 = 8, above every
    // resident age (0..3): all lines may still be reused -> bypass.
    for (int i = 0; i < 32; ++i)
        p.onAccess(acc(0, static_cast<uint32_t>(i % 4), true));
    ASSERT_GE(p.reuseDistance(), 3u);
    EXPECT_EQ(p.findVictim(miss, line_addrs),
              cache::ReplacementPolicy::kBypass);
}

TEST(RlrDeathTest, ConstructorRejectsOversizedHitBits)
{
    RlrConfig cfg;
    cfg.hit_bits = 32; // (1u << 32) - 1 would be UB
    EXPECT_DEATH({ RlrPolicy p(cfg); }, "bad hit_bits");
}

TEST(RlrDeathTest, ConstructorRejectsOversizedAgeTick)
{
    RlrConfig cfg;
    cfg.age_tick_misses = 9; // 3-bit per-set counter holds <= 8
    EXPECT_DEATH({ RlrPolicy p(cfg); }, "age_tick_misses");
}

TEST(RlrDeathTest, ConstructorRejectsZeroAgeTick)
{
    RlrConfig cfg;
    cfg.age_tick_misses = 0; // would divide by zero in ageSet
    EXPECT_DEATH({ RlrPolicy p(cfg); }, "age_tick_misses");
}

TEST(Rlr, OverheadMatchesPaperExactly)
{
    cache::CacheGeometry llc2;
    llc2.size_bytes = 2 * 1024 * 1024;
    llc2.ways = 16;
    cache::CacheGeometry llc8 = llc2;
    llc8.size_bytes = 8 * 1024 * 1024;

    RlrPolicy opt;
    opt.bind(llc2);
    EXPECT_NEAR(opt.overhead().totalKiB(llc2), 16.75, 0.01);
    RlrPolicy opt8;
    opt8.bind(llc8);
    EXPECT_NEAR(opt8.overhead().totalKiB(llc8), 67.0, 0.01);

    RlrPolicy unopt(RlrConfig::unoptimized());
    unopt.bind(llc2);
    EXPECT_NEAR(unopt.overhead().totalKiB(llc2), 40.0, 0.01);
}

TEST(Rlr, NeverReadsPc)
{
    RlrPolicy p;
    EXPECT_FALSE(p.usesPc());
}

TEST(Rlr, Names)
{
    EXPECT_EQ(RlrPolicy().name(), "RLR");
    EXPECT_EQ(RlrPolicy(RlrConfig::unoptimized()).name(),
              "RLR(unopt)");
    EXPECT_EQ(RlrPolicy(RlrConfig::forMulticore(4)).name(),
              "RLR-mc");
}

TEST(RlrMulticore, CorePrioritiesRankByDemandHits)
{
    RlrConfig cfg = RlrConfig::forMulticore(4);
    cfg.core_update_interval = 64;
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());
    // Core 2 produces many demand hits; others none.
    for (int i = 0; i < 64; ++i) {
        p.onAccess(acc(0, 0, true, trace::AccessType::Load, 2));
    }
    EXPECT_EQ(p.corePriority(2), 3u);
    EXPECT_LT(p.corePriority(0), 3u);
}

TEST(RlrMulticore, CorePriorityEntersLinePriority)
{
    RlrConfig cfg = RlrConfig::forMulticore(4);
    cfg.core_update_interval = 16;
    RlrPolicy p(cfg);
    p.bind(test::tinyGeometry());
    for (int i = 0; i < 16; ++i)
        p.onAccess(acc(0, 0, true, trace::AccessType::Load, 1));
    // Fill two lines from different cores.
    p.onAccess(acc(0, 2, false, trace::AccessType::Load, 1));
    p.onAccess(acc(0, 3, false, trace::AccessType::Load, 0));
    EXPECT_GT(p.linePriority(0, 2), p.linePriority(0, 3));
}

TEST(Rlr, BeatsLruOnScanThrashMix)
{
    // Hot lines with reuse + scan pollution: RLR's hit priority
    // should beat LRU.
    trace::LlcTrace t;
    uint64_t scan = 500;
    for (int rep = 0; rep < 500; ++rep) {
        for (uint64_t l = 0; l < 2; ++l)
            t.append({0x400, l * 64, trace::AccessType::Load, 0});
        t.append({0x900, (scan++) * 64,
                  trace::AccessType::Load, 0});
    }
    ml::OfflineSimulator sim(test::smallOffline(), &t);
    policies::LruPolicy lru;
    const auto base = sim.runPolicy(lru);
    RlrPolicy rlrp;
    const auto s = sim.runPolicy(rlrp);
    EXPECT_GE(s.hits, base.hits);
}
