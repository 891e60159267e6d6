/** @file Tests for the Belady oracle and MIN policy. */

#include <gtest/gtest.h>

#include <unordered_set>

#include "policies/belady.hh"
#include "policies/lru.hh"
#include "policies/random.hh"
#include "tests/policy_test_util.hh"
#include "util/rng.hh"

using namespace rlr;
using namespace rlr::policies;

TEST(BeladyOracle, NextUseLookup)
{
    const auto trace = test::loadTrace({1, 2, 3, 1, 2, 1});
    BeladyOracle oracle(trace);
    EXPECT_EQ(oracle.nextUse(1 * 64, 0), 3u);
    EXPECT_EQ(oracle.nextUse(1 * 64, 3), 5u);
    EXPECT_EQ(oracle.nextUse(1 * 64, 5), BeladyOracle::kNever);
    EXPECT_EQ(oracle.nextUse(3 * 64, 2), BeladyOracle::kNever);
    EXPECT_EQ(oracle.nextUse(99 * 64, 0), BeladyOracle::kNever);
}

TEST(BeladyPolicy, EvictsFarthest)
{
    // Set with lines whose next uses are known; MIN picks the
    // farthest.
    const auto trace =
        test::loadTrace({1, 2, 3, 4, 5, 1, 2, 3, 4});
    auto oracle = std::make_shared<BeladyOracle>(trace);
    BeladyPolicy p(oracle);
    p.bind(test::tinyGeometry());
    p.setPosition(4); // after filling 1..4, access 5 misses

    std::vector<uint64_t> line_addrs(4);
    for (uint32_t w = 0; w < 4; ++w)
        line_addrs[w] = (w + 1) * 64ull;
    cache::AccessContext miss;
    miss.full_addr = 5 * 64;
    // Next uses after position 4: line1@5, line2@6, line3@7,
    // line4@8 -> farthest is line 4 (way 3).
    EXPECT_EQ(p.findVictim(miss, line_addrs), 3u);
}

TEST(BeladyPolicy, NeverUsedEvictedFirst)
{
    const auto trace =
        test::loadTrace({1, 2, 3, 4, 5, 1, 2, 4});
    auto oracle = std::make_shared<BeladyOracle>(trace);
    BeladyPolicy p(oracle);
    p.bind(test::tinyGeometry());
    p.setPosition(4); // deciding the miss to line 5
    std::vector<uint64_t> line_addrs(4);
    for (uint32_t w = 0; w < 4; ++w)
        line_addrs[w] = (w + 1) * 64ull;
    cache::AccessContext miss;
    // Line 3 is never used again -> way 2.
    EXPECT_EQ(p.findVictim(miss, line_addrs), 2u);
}

/**
 * Property: Belady's hit rate dominates LRU and Random on random
 * traces (MIN optimality), across seeds.
 */
class BeladyOptimalityTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BeladyOptimalityTest, DominatesOnRandomTraces)
{
    util::Rng rng(GetParam());
    std::vector<uint64_t> lines;
    // Skewed random lines over 3x the cache capacity.
    for (int i = 0; i < 4000; ++i)
        lines.push_back(rng.nextBounded(192));
    const auto trace = test::loadTrace(lines);

    ml::OfflineSimulator sim(test::smallOffline(), &trace);
    BeladyPolicy belady(sim.oracle());
    const auto opt = sim.runPolicy(belady);
    LruPolicy lru;
    const auto base = sim.runPolicy(lru);
    RandomPolicy rnd(GetParam());
    const auto rand_stats = sim.runPolicy(rnd);

    EXPECT_GE(opt.hits, base.hits);
    EXPECT_GE(opt.hits, rand_stats.hits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BeladyOptimalityTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u));

TEST(BeladyPolicy, BypassImprovesOrMatchesHitRate)
{
    util::Rng rng(99);
    std::vector<uint64_t> lines;
    for (int i = 0; i < 3000; ++i)
        lines.push_back(rng.nextBounded(256));
    const auto trace = test::loadTrace(lines);
    ml::OfflineSimulator sim(test::smallOffline(), &trace);

    BeladyPolicy plain(sim.oracle(), false);
    const auto s_plain = sim.runPolicy(plain);
    BeladyPolicy bypass(sim.oracle(), true);
    const auto s_bypass = sim.runPolicy(bypass);
    EXPECT_GE(s_bypass.hits, s_plain.hits);
}

TEST(BeladyPolicy, ZeroOverhead)
{
    const auto trace = test::loadTrace({1});
    auto oracle = std::make_shared<BeladyOracle>(trace);
    BeladyPolicy p(oracle);
    cache::CacheGeometry g = test::tinyGeometry();
    p.bind(g);
    EXPECT_DOUBLE_EQ(p.overhead().totalBytes(g), 0.0);
}
