/** @file Tests for SHiP and SHiP++. */

#include <gtest/gtest.h>

#include <vector>

#include "policies/ship.hh"
#include "tests/policy_test_util.hh"
#include "util/bits.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"

using namespace rlr;
using namespace rlr::policies;

namespace
{

cache::AccessContext
ctxFor(uint32_t set, uint32_t way, bool hit, uint64_t pc,
       trace::AccessType type = trace::AccessType::Load)
{
    cache::AccessContext c;
    c.set = set;
    c.way = way;
    c.hit = hit;
    c.pc = pc;
    c.type = type;
    c.full_addr = 0x1000;
    return c;
}

} // namespace

TEST(Ship, TrainsOnReuse)
{
    ShipPolicy p;
    p.bind(test::tinyGeometry());
    const uint64_t pc = 0x4004;
    const uint64_t before = p.shctValue(pc);
    p.onAccess(ctxFor(0, 0, false, pc)); // fill
    p.onAccess(ctxFor(0, 0, true, pc));  // first re-reference
    EXPECT_EQ(p.shctValue(pc), before + 1);
    // Further hits do not retrain (outcome bit).
    p.onAccess(ctxFor(0, 0, true, pc));
    EXPECT_EQ(p.shctValue(pc), before + 1);
}

TEST(Ship, DetrainsDeadLines)
{
    ShipPolicy p;
    p.bind(test::tinyGeometry());
    const uint64_t pc = 0x4010;
    const uint64_t before = p.shctValue(pc);
    p.onAccess(ctxFor(0, 1, false, pc));
    p.onEviction(0, 1, cache::BlockView{true, false, false, 0});
    EXPECT_EQ(p.shctValue(pc), before - 1);
}

TEST(Ship, DeadPcInsertedDistant)
{
    ShipPolicy p;
    p.bind(test::tinyGeometry());
    const uint64_t dead_pc = 0x4020;
    // Detrain until the counter hits zero.
    for (int i = 0; i < 5; ++i) {
        p.onAccess(ctxFor(0, 2, false, dead_pc));
        p.onEviction(0, 2,
                     cache::BlockView{true, false, false, 0});
    }
    EXPECT_EQ(p.shctValue(dead_pc), 0u);
    // Fill every way so no stale-initial RRPVs remain, with the
    // dead PC's line in way 2.
    p.onAccess(ctxFor(0, 0, false, 0x9999));
    p.onAccess(ctxFor(0, 1, false, 0x9999));
    p.onAccess(ctxFor(0, 3, false, 0x9999));
    p.onAccess(ctxFor(0, 2, false, dead_pc));
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    miss.pc = 0x8888;
    EXPECT_EQ(p.findVictim(miss, line_addrs), 2u);
}

TEST(Ship, WritebackDoesNotTrain)
{
    ShipPolicy p;
    p.bind(test::tinyGeometry());
    const uint64_t pc = 0x4040;
    p.onAccess(ctxFor(0, 0, false, pc));
    const uint64_t before = p.shctValue(pc);
    p.onAccess(
        ctxFor(0, 0, true, pc, trace::AccessType::Writeback));
    EXPECT_EQ(p.shctValue(pc), before);
}

TEST(Ship, UsesPcFlag)
{
    ShipPolicy ship;
    ShipPPPolicy shippp;
    EXPECT_TRUE(ship.usesPc());
    EXPECT_TRUE(shippp.usesPc());
}

TEST(Ship, OverheadMatchesPaper)
{
    ShipPolicy p;
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    p.bind(g);
    EXPECT_NEAR(p.overhead().totalKiB(g), 14.0, 0.01);
    ShipPPPolicy pp;
    pp.bind(g);
    EXPECT_NEAR(pp.overhead().totalKiB(g), 20.0, 0.01);
}

TEST(Ship, ShctTrainsAsSatCounterTable)
{
    // The SHCT is a table of shct_bits-wide saturating counters
    // starting at 1, indexed by the folded PC. Fills evict (and
    // detrain a line never re-referenced), first hits train up.
    // A reference table of SatCounter(shct_bits, 1) must read the
    // same after each of 1M random fills, hits and queries, at the
    // default shape and at an 8-bit/5-bit one.
    for (const ShipConfig cfg : {ShipConfig{}, ShipConfig{2, 8, 5}}) {
        ShipPolicy p(cfg);
        const cache::CacheGeometry g = test::tinyGeometry();
        p.bind(g);
        std::vector<util::SatCounter> ref(
            1ULL << cfg.signature_bits,
            util::SatCounter(cfg.shct_bits, 1));
        const auto sig = [&](uint64_t pc) {
            return util::foldXor(pc >> 2, cfg.signature_bits);
        };
        struct Line
        {
            bool filled = false;
            bool outcome = false;
            uint64_t site = 0;
        };
        std::vector<Line> lines(g.numLines());
        // Readings at each end, so the stream provably saturates
        // counters both ways.
        uint64_t at_zero = 0, at_max = 0;
        util::Rng rng(11);
        for (int i = 0; i < 1000000; ++i) {
            const auto set = static_cast<uint32_t>(
                rng.nextBounded(g.numSets()));
            const auto way =
                static_cast<uint32_t>(rng.nextBounded(g.ways));
            Line &l = lines[set * g.ways + way];
            // 64 PC sites, 37 apart so they spread over the table.
            const uint64_t site = rng.nextBounded(64);
            const uint64_t pc = 0x400000 + 4 * site * 37;
            // Twice as many hit tries as fills, so reuse can win.
            switch (rng.nextBounded(4)) {
              case 0: // evict and fill
                if (l.filled) {
                    p.onEviction(set, way, {true, false, false, 0});
                    if (!l.outcome)
                        --ref[sig(0x400000 + 4 * l.site * 37)];
                }
                p.onAccess(ctxFor(set, way, false, pc));
                l = Line{true, false, site};
                break;
              case 1:
              case 2: { // hit, likelier for some sites than others
                const double reuse = l.site % 3 == 0   ? 0.9
                                     : l.site % 3 == 1 ? 0.1
                                                       : 0.5;
                if (!l.filled || !rng.chance(reuse))
                    break;
                p.onAccess(ctxFor(set, way, true, pc));
                if (!l.outcome)
                    ++ref[sig(0x400000 + 4 * l.site * 37)];
                l.outcome = true;
                break;
              }
              default:
                break;
            }
            ASSERT_EQ(p.shctValue(pc), ref[sig(pc)].value())
                << "op " << i;
            at_zero += ref[sig(pc)].value() == 0;
            at_max += ref[sig(pc)].saturated();
        }
        EXPECT_GT(at_zero, 10000u);
        EXPECT_GT(at_max, 10000u);
    }
}

TEST(ShipPP, SaturatedSignatureInsertsMru)
{
    ShipPPPolicy p;
    p.bind(test::tinyGeometry());
    const uint64_t pc = 0x4100;
    // Saturate the signature by repeated reuse.
    for (int i = 0; i < 10; ++i) {
        p.onAccess(ctxFor(0, 0, false, pc));
        p.onAccess(ctxFor(0, 0, true, pc));
    }
    // A fresh fill from this PC should land at RRPV 0: it should
    // NOT be chosen over an untrained line.
    p.onAccess(ctxFor(0, 1, false, pc));
    p.onAccess(ctxFor(0, 2, false, 0x7777));
    std::vector<uint64_t> line_addrs(4);
    cache::AccessContext miss;
    miss.set = 0;
    miss.pc = 0x6666;
    EXPECT_NE(p.findVictim(miss, line_addrs), 1u);
}

TEST(ShipPP, BeatsShipOnScanMix)
{
    // Hot lines reused by one PC + a one-shot scan from another:
    // both SHiP variants should protect the hot PC's lines.
    std::vector<std::pair<uint64_t, trace::AccessType>> seq;
    for (int rep = 0; rep < 40; ++rep) {
        for (uint64_t h = 0; h < 3; ++h)
            seq.push_back({h * 64 * 16,
                           trace::AccessType::Load});
        seq.push_back({(100 + static_cast<uint64_t>(rep)) * 64 * 16,
                       trace::AccessType::Load});
    }
    // Hot PC for hot lines, scan PC for scan lines.
    trace::LlcTrace t;
    size_t i = 0;
    for (const auto &[addr, type] : seq) {
        const bool hot = addr < 4 * 64 * 16;
        t.append({hot ? 0x400u : 0x900u, addr, type, 0});
        ++i;
    }
    ml::OfflineSimulator sim(test::smallOffline(), &t);
    ShipPolicy ship;
    const auto s1 = sim.runPolicy(ship);
    // The hot lines are nearly always hits after warmup.
    EXPECT_GT(s1.hitRate(), 0.5);
}
