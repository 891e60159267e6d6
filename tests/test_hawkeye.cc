/** @file Tests for the Hawkeye policy. */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "policies/hawkeye.hh"
#include "tests/policy_test_util.hh"
#include "util/bits.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"
#include "verify/ref_cache.hh"
#include "verify/ref_policies.hh"

using namespace rlr;
using namespace rlr::policies;

TEST(Hawkeye, PredictorTrainsAsSatCounterTable)
{
    // One sampled 16-way set and at most 16 distinct lines, so
    // OPTgen's occupancy never fills and its decision for a reuse
    // is "hit" exactly when the reuse falls inside the history
    // window. The predictor is a table of counter_bits-wide
    // saturating counters starting at the friendly threshold. A
    // reference SatCounter table, driven by that rule, by the
    // detraining of findVictim and by Hawkeye's RRPV update, must
    // agree on every victim and on every friendly/averse reading
    // over 1M random accesses, victim queries and predictions, at
    // the default shape and at a 6-bit/4-bit one.
    HawkeyeConfig small;
    small.predictor_bits = 6;
    small.counter_bits = 4;
    for (const HawkeyeConfig cfg : {HawkeyeConfig{}, small}) {
        HawkeyePolicy p(cfg);
        cache::CacheGeometry g;
        g.ways = 16;
        g.size_bytes = g.ways * 64; // one set
        p.bind(g);
        const uint64_t window = cfg.history_factor * g.ways;
        const uint8_t max_rrpv = (1u << cfg.rrpv_bits) - 1;
        const uint64_t threshold = 1ULL << (cfg.counter_bits - 1);
        std::vector<util::SatCounter> ref(
            1ULL << cfg.predictor_bits,
            util::SatCounter(cfg.counter_bits, threshold));
        const auto sig = [&](uint64_t pc) {
            return util::foldXor(pc >> 2, cfg.predictor_bits);
        };
        const auto friendly = [&](uint64_t s) {
            return ref[s].value() >= threshold;
        };
        // Line k lives in way k; every access is a load.
        struct Line
        {
            bool seen = false;
            uint64_t last = 0;
            uint64_t last_sig = 0;
            uint8_t rrpv = 0;
            uint64_t pc_sig = 0;
        };
        std::vector<Line> lines(g.ways);
        for (auto &l : lines)
            l.rrpv = max_rrpv;
        const std::vector<uint64_t> no_addrs(g.ways, 0);
        uint64_t now = 0;
        // How often each path ran, so the stream provably covers
        // both OPTgen outcomes, detraining and both readings.
        uint64_t opt_hits = 0, opt_misses = 0, detrains = 0,
                 averse = 0;
        util::Rng rng(13);
        for (int i = 0; i < 1000000; ++i) {
            // 64 PC sites, 37 apart so they spread over the table.
            const uint64_t pc =
                0x400000 + 4 * rng.nextBounded(64) * 37;
            cache::AccessContext ctx;
            switch (rng.nextBounded(3)) {
              case 0: { // access: lines 12-15 are rare, so about
                        // half of their reuses leave the window
                const auto way = static_cast<uint32_t>(
                    rng.chance(0.97) ? rng.nextBounded(12)
                                     : 12 + rng.nextBounded(4));
                Line &l = lines[way];
                ctx.way = way;
                ctx.pc = pc;
                ctx.full_addr = (way + 1) * 64;
                ctx.hit = l.seen;
                p.onAccess(ctx);
                if (l.seen) {
                    if (now - l.last < window) {
                        ++ref[l.last_sig];
                        ++opt_hits;
                    } else {
                        --ref[l.last_sig];
                        ++opt_misses;
                    }
                }
                l.seen = true;
                l.last = now++;
                l.last_sig = sig(pc);
                l.pc_sig = sig(pc);
                if (!friendly(l.pc_sig)) {
                    l.rrpv = max_rrpv;
                    break;
                }
                if (!ctx.hit) {
                    for (uint32_t w = 0; w < g.ways; ++w)
                        if (w != way && lines[w].rrpv < max_rrpv - 1)
                            ++lines[w].rrpv;
                }
                l.rrpv = 0;
                break;
              }
              case 1: { // victim query: an averse line, else the
                        // oldest friendly one, which is detrained
                uint32_t victim = g.ways;
                for (uint32_t w = 0; w < g.ways && victim == g.ways;
                     ++w)
                    if (lines[w].rrpv == max_rrpv)
                        victim = w;
                if (victim == g.ways) {
                    uint8_t oldest = 0;
                    for (uint32_t w = 0; w < g.ways; ++w) {
                        if (lines[w].rrpv >= oldest) {
                            oldest = lines[w].rrpv;
                            victim = w;
                        }
                    }
                    --ref[lines[victim].pc_sig];
                    ++detrains;
                }
                ASSERT_EQ(p.findVictim(ctx, no_addrs), victim)
                    << "op " << i;
                break;
              }
              default:
                break;
            }
            ASSERT_EQ(p.predictsFriendly(pc), friendly(sig(pc)))
                << "op " << i;
            averse += !friendly(sig(pc));
        }
        EXPECT_GT(opt_hits, 10000u);
        EXPECT_GT(opt_misses, 1000u);
        EXPECT_GT(detrains, 1000u);
        EXPECT_GT(averse, 10000u);
        EXPECT_LT(averse, 990000u);
    }
}

TEST(Hawkeye, ColdPredictorIsFriendly)
{
    HawkeyePolicy p;
    p.bind(test::tinyGeometry());
    // Counters start at the friendly threshold.
    EXPECT_TRUE(p.predictsFriendly(0x1234));
}

TEST(Hawkeye, LearnsAverseFromStreamingPc)
{
    // One PC streams through far more lines than the cache holds:
    // OPTgen observes no attainable hits and detrains the PC.
    HawkeyeConfig cfg;
    cfg.sampled_sets = 16; // sample every set of the small cache
    HawkeyePolicy p(cfg);

    std::vector<uint64_t> lines;
    for (uint64_t i = 0; i < 4000; ++i)
        lines.push_back(i); // never reused
    const auto trace = test::loadTrace(lines, 0xbeef);
    ml::OfflineSimulator sim(test::smallOffline(), &trace);
    sim.runPolicy(p);
    EXPECT_FALSE(p.predictsFriendly(0xbeef));
}

TEST(Hawkeye, KeepsFriendlyPcFriendly)
{
    HawkeyeConfig cfg;
    cfg.sampled_sets = 16;
    HawkeyePolicy p(cfg);

    // Tight reuse: 8 lines (2 sets' worth) looping many times.
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

TEST(Hawkeye, MixedWorkloadProtectsFriendly)
{
    // Friendly PC loops over a small set; averse PC scans. After
    // training, Hawkeye should hold the friendly lines.
    HawkeyeConfig cfg;
    cfg.sampled_sets = 16;
    HawkeyePolicy p(cfg);

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
    // 2 of 3 accesses per round are to hot lines.
    EXPECT_GT(stats.hitRate(), 0.55);
    EXPECT_FALSE(p.predictsFriendly(0x900));
}

TEST(Hawkeye, OptgenDecidesAsBeladyWithBypass)
{
    // With its history window longer than the stream, OPTgen's
    // decision for each reuse must be the hit or miss of Belady's
    // MIN with bypass on the same single 4-way set.
    util::Rng rng(21);
    uint64_t hits = 0;
    for (int stream = 0; stream < 200; ++stream) {
        const uint64_t n_lines = 5 + rng.nextBounded(12);
        const uint64_t length = 200 + rng.nextBounded(800);
        std::vector<uint64_t> lines(length);
        for (auto &l : lines)
            l = rng.nextBounded(n_lines) * 64;

        HawkeyeConfig cfg;
        cfg.history_factor = 1000; // 4000 set accesses > length
        HawkeyePolicy p(cfg);
        cache::CacheGeometry g;
        g.ways = 4;
        g.size_bytes = g.ways * 64; // one set, sampled
        p.bind(g);
        std::optional<bool> decision;
        p.setOptgenObserver([&](bool opt_hit) {
            ASSERT_FALSE(decision.has_value());
            decision = opt_hit;
        });
        verify::RefCache belady(
            1, g.ways,
            std::make_unique<verify::RefBelady>(lines, true));
        std::vector<bool> seen(n_lines, false);
        for (uint64_t i = 0; i < length; ++i) {
            cache::AccessContext ctx;
            ctx.full_addr = lines[i];
            ctx.pc = 0x400;
            decision.reset();
            p.onAccess(ctx);
            const bool opt = belady.access({lines[i], 0x400,
                                            trace::AccessType::Load,
                                            0, i})
                                 .hit;
            // A first access has no reuse to decide.
            const bool reuse = seen[lines[i] / 64];
            seen[lines[i] / 64] = true;
            ASSERT_EQ(decision.has_value(), reuse)
                << "stream " << stream << " access " << i;
            ASSERT_EQ(decision.value_or(false), opt)
                << "stream " << stream << " access " << i;
            hits += opt;
        }
    }
    EXPECT_GT(hits, 10000u);
}

TEST(Hawkeye, OverheadMatchesPaper)
{
    HawkeyePolicy p;
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    p.bind(g);
    EXPECT_NEAR(p.overhead().totalKiB(g), 28.0, 0.5);
    EXPECT_TRUE(p.usesPc());
}
