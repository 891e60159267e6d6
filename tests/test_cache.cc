/** @file Tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "policies/lru.hh"
#include "policies/rrip.hh"
#include "sim/system.hh"
#include "stats/registry.hh"
#include "util/rng.hh"

using namespace rlr;
using namespace rlr::cache;

namespace
{

/** Fixed-latency backing memory that records requests. */
class FakeMemory : public MemoryLevel
{
  public:
    explicit FakeMemory(uint64_t latency = 100)
        : latency_(latency), name_("fake")
    {
    }

    uint64_t
    access(const MemRequest &req, uint64_t now) override
    {
        requests.push_back(req);
        if (req.type == trace::AccessType::Writeback)
            return now;
        return now + latency_;
    }

    const std::string &name() const override { return name_; }

    std::vector<MemRequest> requests;

  private:
    uint64_t latency_;
    std::string name_;
};

/** Policy stub that bypasses everything. */
class BypassPolicy : public ReplacementPolicy
{
  public:
    void bind(const CacheGeometry &) override {}
    uint32_t
    findVictim(const AccessContext &,
               std::span<const uint64_t>) override
    {
        return kBypass;
    }
    void onAccess(const AccessContext &) override {}
    std::string name() const override { return "bypass"; }
    StorageOverhead overhead() const override { return {}; }
};

/**
 * Conforming bypass-happy policy: bypasses every fill it is
 * allowed to (including writebacks, unlike the factory policies),
 * but honours a denied bypass with a fixed victim way.
 */
class WbBypassPolicy : public ReplacementPolicy
{
  public:
    void bind(const CacheGeometry &) override {}
    uint32_t
    findVictim(const AccessContext &ctx,
               std::span<const uint64_t>) override
    {
        return ctx.allow_bypass ? kBypass : 2u;
    }
    void onAccess(const AccessContext &) override {}
    std::string name() const override { return "wb-bypass"; }
    StorageOverhead overhead() const override { return {}; }
};

/** Stub policy that counts its verifyInvariants calls. */
class VerifyCountingPolicy : public ReplacementPolicy
{
  public:
    void bind(const CacheGeometry &) override {}
    uint32_t
    findVictim(const AccessContext &,
               std::span<const uint64_t>) override
    {
        return 0;
    }
    void onAccess(const AccessContext &) override {}
    void
    verifyInvariants(uint32_t,
                     std::span<const BlockView>) const override
    {
        ++calls;
    }
    std::string name() const override { return "verify-counting"; }
    StorageOverhead overhead() const override { return {}; }

    mutable uint64_t calls = 0;
};

/** Observer that logs every hook as one line of text. */
class RecordingObserver : public CacheObserver
{
  public:
    void
    attach(const CacheGeometry &geom, LineCounter valid_lines) override
    {
        log.push_back("attach " + std::to_string(geom.numSets()) +
                      " " + std::to_string(valid_lines()));
        lines = valid_lines;
    }
    void
    onAccess(uint32_t set, const MemRequest &req, bool hit) override
    {
        log.push_back("access " + std::to_string(set) + " " +
                      std::to_string(req.address) +
                      (hit ? " hit" : " miss"));
    }
    void
    onHit(uint32_t, uint32_t way, const MemRequest &,
          uint64_t) override
    {
        log.push_back("hit " + std::to_string(way));
    }
    void
    onFill(uint32_t, uint32_t way, const MemRequest &,
           uint64_t) override
    {
        log.push_back("fill " + std::to_string(way));
    }
    void
    onEviction(uint32_t, uint32_t way, uint64_t victim,
               const MemRequest &, uint64_t) override
    {
        log.push_back("evict " + std::to_string(way) + " " +
                      std::to_string(victim));
    }
    void
    onBypass(uint32_t, const MemRequest &, BypassReason) override
    {
        log.push_back("bypass");
    }
    void reset() override { log.push_back("reset"); }

    std::vector<std::string> log;
    LineCounter lines;
};

CacheGeometry
smallGeometry()
{
    CacheGeometry g;
    g.name = "L";
    g.size_bytes = 4 * 1024; // 4 sets x 16 ways... 64 lines
    g.ways = 4;
    g.latency = 10;
    g.mshrs = 4;
    return g;
}

MemRequest
load(uint64_t addr, uint64_t pc = 0x400)
{
    MemRequest r;
    r.address = addr;
    r.pc = pc;
    r.type = trace::AccessType::Load;
    return r;
}

/** Counter @p name of @p c as its describeStats export reads it. */
uint64_t
exported(Cache &c, const std::string &name)
{
    stats::Registry reg;
    c.describeStats(reg, "c");
    return reg.snapshot().counter("c." + name);
}

} // namespace

TEST(Cache, HitAfterFill)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    const uint64_t t1 = c.access(load(0x1000), 0);
    EXPECT_EQ(t1, 110u); // 10 lookup + 100 memory
    EXPECT_EQ(exported(c, "LD_miss"), 1u);

    const uint64_t t2 = c.access(load(0x1000), 200);
    EXPECT_EQ(t2, 210u); // hit: lookup latency only
    EXPECT_EQ(exported(c, "LD_hit"), 1u);
    EXPECT_TRUE(c.probe(0x1000));
}

TEST(Cache, ExportsEveryCounterInNameOrder)
{
    // A fresh cache exports all 20 counters, zeros included, in
    // string order of their names, then the demand totals.
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    stats::Registry reg;
    c.describeStats(reg, "c");
    std::vector<std::string> paths;
    for (const auto &[path, value] : reg.snapshot().counters) {
        EXPECT_EQ(value, 0u) << path;
        paths.push_back(path);
    }
    const std::vector<std::string> expected = {
        "c.LD_access", "c.LD_hit", "c.LD_miss",
        "c.PF_access", "c.PF_hit", "c.PF_miss",
        "c.RFO_access", "c.RFO_hit", "c.RFO_miss",
        "c.WB_access", "c.WB_hit", "c.WB_miss",
        "c.bypasses", "c.evictions", "c.mshr_merges", "c.mshr_stalls",
        "c.pf_fills_skipped", "c.prefetches_issued",
        "c.wb_bypass_denied", "c.writebacks_issued",
        "c.demand_accesses", "c.demand_hits", "c.demand_misses"};
    EXPECT_EQ(paths, expected);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    c.access(load(0x1000), 0);
    c.access(load(0x103f), 1000);
    EXPECT_EQ(exported(c, "LD_hit"), 1u);
}

TEST(Cache, MshrMergeWhileInFlight)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    const uint64_t ready = c.access(load(0x2000), 0);
    // Second access before the fill returns merges and completes
    // with the original miss, not sooner.
    const uint64_t t2 = c.access(load(0x2000), 20);
    EXPECT_EQ(t2, ready);
    EXPECT_EQ(exported(c, "mshr_merges"), 1u);
    EXPECT_EQ(exported(c, "LD_miss"), 2u);
    // Only one request reached memory.
    EXPECT_EQ(mem.requests.size(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    FakeMemory mem;
    CacheGeometry g = smallGeometry(); // 16 sets, 4 ways
    Cache c(g, std::make_unique<policies::LruPolicy>(), &mem);
    // Fill one set (stride = sets * line = 16 * 64 = 1024).
    const uint64_t stride = g.numSets() * kLineBytes;
    for (uint64_t i = 0; i < 4; ++i)
        c.access(load(0x10000 + i * stride), i * 1000);
    // Touch line 0 so line 1 becomes LRU.
    c.access(load(0x10000), 10000);
    // New fill must evict line 1.
    c.access(load(0x10000 + 4 * stride), 20000);
    EXPECT_TRUE(c.probe(0x10000));
    EXPECT_FALSE(c.probe(0x10000 + 1 * stride));
    EXPECT_TRUE(c.probe(0x10000 + 2 * stride));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    FakeMemory mem;
    CacheGeometry g = smallGeometry();
    Cache c(g, std::make_unique<policies::LruPolicy>(), &mem);
    c.setWritesOnRfo(true);
    const uint64_t stride = g.numSets() * kLineBytes;

    MemRequest rfo = load(0x10000);
    rfo.type = trace::AccessType::Rfo;
    c.access(rfo, 0);

    // Evict it by filling the set with 4 more lines.
    for (uint64_t i = 1; i <= 4; ++i)
        c.access(load(0x10000 + i * stride), i * 1000);

    bool saw_wb = false;
    for (const auto &req : mem.requests) {
        if (req.type == trace::AccessType::Writeback &&
            CacheGeometry::lineAddress(req.address) == 0x10000)
            saw_wb = true;
    }
    EXPECT_TRUE(saw_wb);
    EXPECT_EQ(exported(c, "writebacks_issued"), 1u);
}

TEST(Cache, WritebackMissAllocatesWithoutFetch)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    MemRequest wb;
    wb.address = 0x3000;
    wb.type = trace::AccessType::Writeback;
    const uint64_t t = c.access(wb, 0);
    EXPECT_EQ(t, 10u); // no memory round trip
    EXPECT_TRUE(c.probe(0x3000));
    EXPECT_TRUE(mem.requests.empty());
    // The allocated line must be dirty.
    const auto views = c.setContents(c.geometry().setIndex(0x3000));
    bool found_dirty = false;
    for (const auto &v : views)
        if (v.valid && v.address == 0x3000 && v.dirty)
            found_dirty = true;
    EXPECT_TRUE(found_dirty);
}

TEST(Cache, BypassPolicySkipsFill)
{
    FakeMemory mem;
    CacheGeometry g = smallGeometry();
    Cache c(g, std::make_unique<BypassPolicy>(), &mem);
    const uint64_t stride = g.numSets() * kLineBytes;
    // Fill the set's invalid ways first (bypass only applies when
    // the set is full).
    for (uint64_t i = 0; i < 4; ++i)
        c.access(load(0x10000 + i * stride), i * 1000);
    c.access(load(0x10000 + 4 * stride), 10000);
    EXPECT_EQ(exported(c, "bypasses"), 1u);
    EXPECT_FALSE(c.probe(0x10000 + 4 * stride));
    // Resident lines undisturbed.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(c.probe(0x10000 + i * stride));
}

TEST(Cache, PrefetchFlagClearedOnDemandHit)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    MemRequest pf = load(0x4000);
    pf.type = trace::AccessType::Prefetch;
    c.access(pf, 0);
    auto views = c.setContents(c.geometry().setIndex(0x4000));
    bool pf_flag = false;
    for (const auto &v : views)
        if (v.valid && v.address == 0x4000)
            pf_flag = v.prefetch;
    EXPECT_TRUE(pf_flag);

    c.access(load(0x4000), 1000);
    views = c.setContents(c.geometry().setIndex(0x4000));
    for (const auto &v : views)
        if (v.valid && v.address == 0x4000)
            pf_flag = v.prefetch;
    EXPECT_FALSE(pf_flag);
}

TEST(Cache, TraceCaptureRecordsEveryAccess)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    TraceCapture capture;
    c.setObservers({&capture});
    c.access(load(0x1000, 0xabc), 0);
    c.access(load(0x1000, 0xdef), 5); // merges into the miss
    c.access(load(0x1000, 0x123), 1000);
    ASSERT_EQ(capture.trace().size(), 3u);
    EXPECT_EQ(capture.trace()[0].pc, 0xabcu);
    EXPECT_EQ(capture.trace()[1].pc, 0xdefu);
    EXPECT_EQ(capture.trace()[2].pc, 0x123u);
    EXPECT_EQ(capture.trace()[0].address, 0x1000u);

    // End of warmup drops the captured prefix.
    c.resetStats();
    EXPECT_TRUE(capture.trace().empty());
}

TEST(Cache, ObserversSeeEveryDecisionInOrder)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    RecordingObserver first, second;
    c.setObservers({&first, &second});
    // 16 sets: lines 0x0, 0x400, ... share set 0.
    c.access(load(0x0), 0);        // miss + fill
    c.access(load(0x0), 1000);     // hit
    for (uint64_t i = 1; i <= 4; ++i)
        c.access(load(i * 0x400), 1000 * (i + 1)); // 4th evicts 0x0
    EXPECT_EQ(first.lines(), 4u); // set 0 full, every other set empty

    const std::vector<std::string> expected = {
        "attach 16 0",       "access 0 0 miss",    "fill 0",
        "access 0 0 hit",    "hit 0",              "access 0 1024 miss",
        "fill 1",            "access 0 2048 miss", "fill 2",
        "access 0 3072 miss", "fill 3",            "access 0 4096 miss",
        "evict 0 0",         "fill 0"};
    EXPECT_EQ(first.log, expected);
    EXPECT_EQ(second.log, expected);

    // An empty list detaches every observer.
    c.setObservers({});
    c.access(load(0x0), 10000);
    c.resetStats();
    EXPECT_EQ(first.log, expected);
}

TEST(Cache, VerifyRunsOnMergedAccess)
{
    FakeMemory mem(100);
    auto policy = std::make_unique<VerifyCountingPolicy>();
    const VerifyCountingPolicy *counting = policy.get();
    Cache c(smallGeometry(), std::move(policy), &mem);
    c.setVerifyInvariants(true);
    c.access(load(0x1000), 0); // miss, data ready at 110
    c.access(load(0x1000), 5); // merges into the in-flight miss
    EXPECT_EQ(exported(c, "mshr_merges"), 1u);
    EXPECT_EQ(counting->calls, 2u);
}

TEST(Cache, DemandCountersAggregate)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    c.access(load(0x1000), 0);
    MemRequest rfo = load(0x2000);
    rfo.type = trace::AccessType::Rfo;
    c.access(rfo, 1000);
    MemRequest pf = load(0x5000);
    pf.type = trace::AccessType::Prefetch;
    c.access(pf, 2000);
    EXPECT_EQ(c.demandAccesses(), 2u);
    EXPECT_EQ(c.demandMisses(), 2u);
    EXPECT_EQ(c.demandHits(), 0u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    c.access(load(0x1000), 0);
    c.flush();
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_EQ(exported(c, "LD_access"), 0u);
}

TEST(Cache, ResetStatsKeepsContents)
{
    FakeMemory mem;
    Cache c(smallGeometry(), std::make_unique<policies::LruPolicy>(),
            &mem);
    c.access(load(0x1000), 0);
    c.resetStats();
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_EQ(exported(c, "LD_access"), 0u);
    c.access(load(0x1000), 1000);
    EXPECT_EQ(exported(c, "LD_hit"), 1u);
}

TEST(Cache, MshrPressureDelaysMisses)
{
    FakeMemory mem(1000);
    CacheGeometry g = smallGeometry();
    g.mshrs = 2;
    Cache c(g, std::make_unique<policies::LruPolicy>(), &mem);
    // Issue 3 concurrent misses to distinct lines at t=0; the
    // third must wait for an MSHR.
    c.access(load(0x10000), 0);
    c.access(load(0x20000), 0);
    const uint64_t t3 = c.access(load(0x30000), 0);
    EXPECT_GT(t3, 1010u);
    EXPECT_GE(exported(c, "mshr_stalls"), 1u);
}

TEST(Cache, MshrReservationTracksStalledCompletion)
{
    // Regression: reserveMshr used to record the *pre-stall*
    // completion time of a stalled miss, so a stalled request
    // under-reported how long it kept its MSHR and later misses
    // were admitted too early.
    FakeMemory mem(100);
    CacheGeometry g = smallGeometry(); // latency 10
    g.mshrs = 1;
    Cache c(g, std::make_unique<policies::LruPolicy>(), &mem);
    const uint64_t t_a = c.access(load(0x10000), 0);
    EXPECT_EQ(t_a, 110u); // 10 lookup + 100 memory
    // B stalls for A's MSHR: admitted at 110, completes at 210.
    const uint64_t t_b = c.access(load(0x20000), 0);
    EXPECT_EQ(t_b, 210u);
    // C stalls for B. B occupies the MSHR until 210 — not until
    // its pre-stall completion time 130, which the old accounting
    // recorded (admitting C at 110 and completing it at 210, as
    // if B had never stalled).
    const uint64_t t_c = c.access(load(0x30000), 20);
    EXPECT_GT(t_c, t_b);
    EXPECT_EQ(t_c, 310u);
    EXPECT_EQ(exported(c, "mshr_stalls"), 2u);
}

TEST(Cache, FlushResetsPolicyMetadata)
{
    // Regression: flush() invalidated the lines but left the
    // replacement policy's per-line metadata (RRPVs, recency
    // stamps, ages) describing the flushed contents.
    FakeMemory mem;
    CacheGeometry g = smallGeometry();
    auto srrip = std::make_unique<policies::SrripPolicy>(2);
    auto *policy = srrip.get();
    Cache c(g, std::move(srrip), &mem);

    const uint32_t set = g.setIndex(0x1000);
    c.access(load(0x1000), 0);    // fill at way 0: rrpv = max-1
    c.access(load(0x1000), 1000); // hit: promoted to rrpv = 0
    EXPECT_EQ(policy->victimPriority(set, 0), 0u);

    c.flush();
    // After the flush the slot's metadata must be back at the
    // bind-time state (distant RRPV), not the stale promotion.
    EXPECT_EQ(policy->victimPriority(set, 0), 3u);
}

TEST(Cache, WritebackBypassDeniedReQueriesPolicy)
{
    // Regression: a policy answering kBypass for a writeback fill
    // used to get way 0 evicted behind its back; now the cache
    // re-queries with allow_bypass=false and counts the denial.
    FakeMemory mem;
    CacheGeometry g = smallGeometry();
    Cache c(g, std::make_unique<WbBypassPolicy>(), &mem);
    const uint64_t stride = g.numSets() * kLineBytes;
    // Fill the set's 4 invalid ways (no policy involvement).
    for (uint64_t i = 0; i < 4; ++i)
        c.access(load(0x10000 + i * stride), i * 1000);

    MemRequest wb;
    wb.address = 0x10000 + 4 * stride;
    wb.type = trace::AccessType::Writeback;
    c.access(wb, 10000);

    EXPECT_EQ(exported(c, "wb_bypass_denied"), 1u);
    EXPECT_EQ(exported(c, "bypasses"), 0u);
    // The denied bypass landed at the policy's chosen way 2, not
    // the old hard-coded way 0.
    EXPECT_TRUE(c.probe(0x10000 + 4 * stride));
    EXPECT_TRUE(c.probe(0x10000 + 0 * stride));
    EXPECT_FALSE(c.probe(0x10000 + 2 * stride));
    // Non-writeback fills still bypass (and are counted as such).
    c.access(load(0x10000 + 5 * stride), 20000);
    EXPECT_EQ(exported(c, "bypasses"), 1u);
    EXPECT_FALSE(c.probe(0x10000 + 5 * stride));
}

TEST(CacheGeometryTest, Derived)
{
    CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    EXPECT_EQ(g.numSets(), 2048u);
    EXPECT_EQ(g.numLines(), 32768u);
    EXPECT_EQ(g.setBits(), 11u);
    // Index/tag consistency.
    const uint64_t addr = 0x123456789aULL;
    const uint32_t set = g.setIndex(addr);
    const uint64_t tag = g.tag(addr);
    EXPECT_LT(set, g.numSets());
    // Reconstruct the line address.
    const uint64_t line =
        (tag << (kLineBits + g.setBits())) |
        (static_cast<uint64_t>(set) << kLineBits);
    EXPECT_EQ(line, CacheGeometry::lineAddress(addr));
}

TEST(Cache, OverlappingMissesWithTiedCompletionsPinTiming)
{
    // Two MSHRs, five overlapping misses, and completion times
    // that tie: which of two equal entries frees first must not
    // matter, and every returned ready cycle is pinned. Lookup 10
    // cycles, memory 100.
    FakeMemory mem(100);
    CacheGeometry g = smallGeometry();
    g.mshrs = 2;
    Cache c(g, std::make_unique<policies::LruPolicy>(), &mem);
    struct Step
    {
        uint64_t address;
        uint64_t now;
        uint64_t ready;
    };
    const Step steps[] = {
        {0x10000, 0, 110},   // in flight: 110
        {0x20000, 0, 110},   // 110 110 (tie)
        {0x30000, 0, 210},   // stalls to 110: 110 210
        {0x40000, 0, 210},   // stalls to the other 110: 210 210
        {0x50000, 5, 310},   // stalls to a 210: 210 310
        {0x60000, 200, 310}, // 210 has freed: 310 310
        {0x70000, 300, 410}, // both freed at 310: 410
    };
    for (const Step &s : steps) {
        EXPECT_EQ(c.access(load(s.address), s.now), s.ready)
            << std::hex << s.address;
    }
    EXPECT_EQ(exported(c, "mshr_stalls"), 3u);
    EXPECT_EQ(exported(c, "LD_miss"), 7u);

    // Three MSHRs, four misses all completing at once, then a
    // fifth: the stalls take the tied entries one at a time.
    Cache c3([] {
        CacheGeometry g3 = smallGeometry();
        g3.mshrs = 3;
        return g3;
    }(), std::make_unique<policies::LruPolicy>(), &mem);
    const uint64_t t3[] = {110, 110, 110, 210, 210};
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(c3.access(load(0x10000 * (i + 1)), 0), t3[i]) << i;
    }
    EXPECT_EQ(exported(c3, "mshr_stalls"), 2u);
}

TEST(Cache, MshrTimingWithBackwardNowAndFlushIsPinned)
{
    // Dependent loads reach a cache with `now` earlier than the
    // previous access's, so completions enter the MSHR table out
    // of order and misses must still free and stall against the
    // right entries. Three MSHRs, lookup 10 cycles, memory 100;
    // every line in its own set. The comments list the in-flight
    // completions after each access.
    FakeMemory mem(100);
    CacheGeometry g = smallGeometry();
    g.size_bytes = 64 * 1024;
    g.mshrs = 3;
    Cache c(g, std::make_unique<policies::LruPolicy>(), &mem);
    struct Step
    {
        uint64_t line;
        uint64_t now;
        uint64_t ready;
    };
    const auto run = [&c](std::initializer_list<Step> steps) {
        for (const Step &s : steps) {
            EXPECT_EQ(c.access(load(s.line * kLineBytes), s.now), s.ready)
                << "line " << s.line << " at " << s.now;
        }
    };
    run({
        {1, 1000, 1110}, // 1110
        {2, 500, 610},   // 1110 610
        {3, 200, 310},   // 1110 610 310
        {4, 100, 410},   // all busy: waits for 310; 1110 610 410
        {5, 450, 560},   // 410 has freed: 1110 610 560
        {6, 0, 660},     // all busy: waits for 560; 1110 610 660
        {1, 2000, 2010}, // hit
        {2, 300, 610},   // merges into the 610 miss
        {7, 620, 730},   // 610 has freed: 1110 660 730
    });
    EXPECT_EQ(exported(c, "mshr_stalls"), 2u);
    EXPECT_EQ(exported(c, "mshr_merges"), 1u);

    // A flush drains every MSHR, however late its completion.
    c.flush();
    run({
        {8, 5, 115},   // 115
        {9, 3, 113},   // 115 113
        {10, 1, 111},  // 115 113 111
        {11, 0, 211},  // waits for 111: 115 113 211
        {12, 0, 213},  // waits for 113: 115 211 213
        {13, 114, 224}, // 115 has freed: 211 213 224
        {14, 50, 311},  // waits for 211: 213 224 311
        {1, 60, 313},   // flushed, so a miss: waits for 213
    });
    EXPECT_EQ(exported(c, "mshr_stalls"), 4u);
    EXPECT_EQ(exported(c, "LD_miss"), 8u);
}

TEST(Cache, PrecomputedIndexingMatchesGeometry)
{
    // The mask and shift each cache derives once must agree with
    // CacheGeometry's own setIndex and tag, at every level of the
    // simulated hierarchy (the 4-core system's 8 MB LLC too).
    util::Rng rng(3);
    for (const uint32_t cores : {1u, 4u}) {
        sim::SystemConfig cfg;
        cfg.num_cores = cores;
        sim::System system(cfg);
        for (Cache *c : {&system.l1i(0), &system.l1d(0), &system.l2(0),
                         &system.llc()}) {
            const CacheGeometry &geom = c->geometry();
            for (uint64_t i = 0; i < 10000; ++i) {
                const uint64_t a = i < 64 ? ~i : rng.next();
                ASSERT_EQ(c->setOf(a), geom.setIndex(a)) << geom.name;
                ASSERT_EQ(c->tagOf(a), geom.tag(a)) << geom.name;
            }
        }
    }
}
