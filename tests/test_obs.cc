/**
 * @file
 * Tests for the observability subsystem (src/obs/): event-log ring
 * wraparound, 1-in-N set sampling, victim metadata exactness,
 * cache integration (incl. bypass reasons), epoch edge cases, and
 * the Chrome trace_event exporter.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "obs/chrome_trace.hh"
#include "obs/epoch.hh"
#include "obs/event_log.hh"
#include "policies/lru.hh"
#include "stats/export.hh"
#include "stats/registry.hh"

using namespace rlr;
using namespace rlr::obs;

namespace
{

/** A demand load of @p addr. */
cache::MemRequest
ld(uint64_t addr, uint64_t pc = 0x400)
{
    cache::MemRequest r;
    r.pc = pc;
    r.address = addr;
    r.type = trace::AccessType::Load;
    return r;
}

cache::MemRequest
ofType(trace::AccessType type)
{
    cache::MemRequest r;
    r.type = type;
    return r;
}

/** Shape with @p sets sets of @p ways ways (observer attach). */
cache::CacheGeometry
geom(uint32_t sets, uint32_t ways)
{
    cache::CacheGeometry g;
    g.size_bytes = uint64_t{sets} * ways * cache::kLineBytes;
    g.ways = ways;
    return g;
}

/** A hit as the cache reports it: the access, then the hit. */
void
hit(EventLog &log, uint32_t set, uint32_t way,
    const cache::MemRequest &req, uint64_t priority)
{
    log.onAccess(set, req, true);
    log.onHit(set, way, req, priority);
}

/** Fixed-latency backing memory. */
class FlatMemory : public cache::MemoryLevel
{
  public:
    uint64_t
    access(const cache::MemRequest &req, uint64_t now) override
    {
        if (req.type == trace::AccessType::Writeback)
            return now;
        return now + 100;
    }
    const std::string &name() const override { return name_; }

  private:
    std::string name_ = "flat";
};

/** Policy stub that bypasses every fill into a full set. */
class BypassAllPolicy : public cache::ReplacementPolicy
{
  public:
    void bind(const cache::CacheGeometry &) override {}
    uint32_t
    findVictim(const cache::AccessContext &,
               std::span<const uint64_t>) override
    {
        return kBypass;
    }
    void onAccess(const cache::AccessContext &) override {}
    std::string name() const override { return "bypass-all"; }
    cache::StorageOverhead overhead() const override { return {}; }
    cache::BypassReason
    bypassReason() const override
    {
        return cache::BypassReason::AgeProtected;
    }
};

/** 4-set x 4-way cache for integration tests. */
cache::CacheGeometry
tinyGeom()
{
    cache::CacheGeometry g;
    g.name = "L";
    g.size_bytes = 4 * 4 * 64;
    g.ways = 4;
    g.latency = 10;
    g.mshrs = 8;
    return g;
}

} // namespace

TEST(EventLog, RingWraparoundKeepsNewest)
{
    EventLog log({/*capacity=*/4, /*sample_sets=*/1});
    log.attach(geom(1, 4), {});
    for (int i = 0; i < 10; ++i)
        hit(log, 0, 0, ld(0x1000), 0);

    EXPECT_EQ(log.recorded(), 10u);
    EXPECT_EQ(log.overwritten(), 6u);
    EXPECT_EQ(log.size(), 4u);

    const EventLogData d = log.data();
    ASSERT_EQ(d.events.size(), 4u);
    // Oldest first, and only the newest four survive.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(d.events[i].access_no, 7 + i);
    EXPECT_EQ(d.ways, 4u);
}

TEST(EventLog, BelowCapacityKeepsEverything)
{
    EventLog log({8, 1});
    log.attach(geom(1, 2), {});
    log.onAccess(0, ld(0), false);
    log.onFill(0, 0, ld(0x40), 3);
    hit(log, 0, 0, ld(0x40), 5);

    EXPECT_EQ(log.recorded(), 2u); // misses alone are not events
    EXPECT_EQ(log.overwritten(), 0u);
    const EventLogData d = log.data();
    ASSERT_EQ(d.events.size(), 2u);
    EXPECT_EQ(d.events[0].kind, EventKind::Fill);
    EXPECT_EQ(d.events[0].priority, 3u);
    EXPECT_EQ(d.events[1].kind, EventKind::Hit);
    EXPECT_EQ(d.events[1].priority, 5u);
}

TEST(EventLog, SetSamplingRecordsOneInN)
{
    EventLog log({64, /*sample_sets=*/2});
    log.attach(geom(4, 2), {});
    for (uint32_t set = 0; set < 4; ++set) {
        log.onAccess(set, ld(0), false);
        log.onFill(set, 0, ld(set * 64ull), 0);
    }

    // Sets 0 and 2 are sampled; 1 and 3 are counted as skipped.
    EXPECT_EQ(log.recorded(), 2u);
    EXPECT_EQ(log.sampledOut(), 2u);
    const EventLogData d = log.data();
    ASSERT_EQ(d.events.size(), 2u);
    EXPECT_EQ(d.events[0].set, 0u);
    EXPECT_EQ(d.events[1].set, 2u);
    // Heatmap counters still cover every set.
    EXPECT_EQ(d.set_accesses, (std::vector<uint64_t>{1, 1, 1, 1}));
    EXPECT_EQ(d.set_misses, (std::vector<uint64_t>{1, 1, 1, 1}));
}

TEST(EventLog, VictimMetadataExact)
{
    EventLog log({16, 1});
    log.attach(geom(1, 2), {});

    // acc 1: fill A into way 0.
    log.onAccess(0, ld(0), false);
    log.onFill(0, 0, ld(0x1000), 0);
    // acc 2: fill B into way 1.
    log.onAccess(0, ld(0), false);
    log.onFill(0, 1, ld(0x2000), 0);
    // acc 3: hit A.
    hit(log, 0, 0, ld(0x1040, 0x999), 0);
    // acc 4: miss C evicts B (the LRU line).
    log.onAccess(0, ld(0), false);
    log.onEviction(0, 1, 0x2000, ld(0x3000), 7);
    log.onFill(0, 1, ld(0x3000), 0);
    // acc 5: miss D evicts A (way 0), now the LRU line.
    log.onAccess(0, ld(0), false);
    log.onEviction(0, 0, 0x1000, ld(0x4000), 9);
    log.onFill(0, 0, ld(0x4000), 0);

    const EventLogData d = log.data();
    std::vector<Event> evictions;
    for (const Event &ev : d.events)
        if (ev.kind == EventKind::Eviction)
            evictions.push_back(ev);
    ASSERT_EQ(evictions.size(), 2u);

    // B: touched at set-access 2, evicted at 4 -> age 2; no hits;
    // LRU among {A touched at 3} -> recency 0.
    EXPECT_EQ(evictions[0].address, 0x2000u);
    EXPECT_EQ(evictions[0].victim_age, 2u);
    EXPECT_EQ(evictions[0].victim_hits, 0u);
    EXPECT_EQ(evictions[0].victim_recency, 0u);
    EXPECT_EQ(evictions[0].priority, 7u);
    EXPECT_EQ(evictions[0].victim_last_type,
              trace::AccessType::Load);

    // A: touched at 3 (the hit), evicted at 5 -> age 2; one hit;
    // other way holds C touched at 4 -> still recency 0.
    EXPECT_EQ(evictions[1].address, 0x1000u);
    EXPECT_EQ(evictions[1].victim_age, 2u);
    EXPECT_EQ(evictions[1].victim_hits, 1u);
    EXPECT_EQ(evictions[1].victim_recency, 0u);
    EXPECT_EQ(evictions[1].priority, 9u);
}

TEST(EventLog, MruVictimGetsTopRecency)
{
    EventLog log({16, 1});
    log.attach(geom(1, 3), {});
    log.onAccess(0, ld(0), false);
    log.onFill(0, 0, ld(0x1000), 0); // acc 1
    log.onAccess(0, ld(0), false);
    log.onFill(0, 1, ld(0x2000), 0); // acc 2
    log.onAccess(0, ld(0), false);
    log.onFill(0, 2, ld(0x3000), 0); // acc 3
    // Evict the most recently touched line (way 2).
    log.onAccess(0, ld(0), false);
    log.onEviction(0, 2, 0x3000, ld(0x4000), 0);

    const EventLogData d = log.data();
    const Event &ev = d.events.back();
    ASSERT_EQ(ev.kind, EventKind::Eviction);
    EXPECT_EQ(ev.victim_recency, 2u); // two older valid lines
    EXPECT_EQ(ev.victim_age, 1u);
}

TEST(EventLog, ResetClearsEverything)
{
    EventLog log({4, 1});
    log.attach(geom(2, 2), {});
    for (int i = 0; i < 6; ++i) {
        log.onAccess(0, ld(0), false);
        log.onFill(0, 0, ld(0x40), 0);
    }
    ASSERT_GT(log.recorded(), 0u);
    log.reset();
    EXPECT_EQ(log.recorded(), 0u);
    EXPECT_EQ(log.overwritten(), 0u);
    EXPECT_EQ(log.sampledOut(), 0u);
    EXPECT_EQ(log.size(), 0u);
    const EventLogData d = log.data();
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.set_accesses, (std::vector<uint64_t>{0, 0}));
}

TEST(EventLog, CacheIntegrationLruOverflow)
{
    FlatMemory mem;
    cache::Cache c(tinyGeom(),
                   std::make_unique<policies::LruPolicy>(), &mem);
    EventLog log({1024, 1});
    c.setObservers({&log});

    // 12 distinct lines in set 0 (stride = numSets * 64), spaced
    // far apart so no MSHR merges occur: 4 plain fills, then 8
    // eviction+fill pairs.
    uint64_t now = 0;
    for (uint64_t i = 0; i < 12; ++i) {
        c.access(ld(i * 4 * 64), now);
        now += 10000;
    }
    // Re-touch the 4 resident lines: 4 hits.
    for (uint64_t i = 8; i < 12; ++i) {
        c.access(ld(i * 4 * 64), now);
        now += 10000;
    }

    const EventLogData d = log.data();
    size_t fills = 0, hits = 0, evicts = 0, bypasses = 0;
    for (const Event &ev : d.events) {
        switch (ev.kind) {
          case EventKind::Fill: ++fills; break;
          case EventKind::Hit: ++hits; break;
          case EventKind::Eviction: ++evicts; break;
          case EventKind::Bypass: ++bypasses; break;
        }
    }
    EXPECT_EQ(fills, 12u);
    EXPECT_EQ(hits, 4u);
    EXPECT_EQ(evicts, 8u);
    EXPECT_EQ(bypasses, 0u);
    EXPECT_EQ(d.set_accesses[0], 16u);
    EXPECT_EQ(d.set_misses[0], 12u);

    for (const Event &ev : d.events) {
        if (ev.kind != EventKind::Eviction)
            continue;
        // LRU always evicts the least recent line...
        EXPECT_EQ(ev.victim_recency, 0u);
        EXPECT_EQ(ev.priority, 0u); // ...whose recency rank is 0
        EXPECT_EQ(ev.victim_hits, 0u);
        // Cyclic overflow: filled 4 set-accesses before eviction.
        EXPECT_EQ(ev.victim_age, 4u);
    }

    // Detach: further accesses record nothing.
    const uint64_t before = log.recorded();
    c.setObservers({});
    c.access(ld(99 * 4 * 64), now);
    EXPECT_EQ(log.recorded(), before);
}

TEST(EventLog, CacheBypassReasonFromPolicy)
{
    FlatMemory mem;
    cache::Cache c(tinyGeom(), std::make_unique<BypassAllPolicy>(),
                   &mem);
    EventLog log({64, 1});
    EpochSampler epoch(1000);
    c.setObservers({&log, &epoch});

    // Fill set 0's four ways (invalid-way fills need no victim),
    // then one more distinct line: the policy bypasses it.
    uint64_t now = 0;
    for (uint64_t i = 0; i < 5; ++i) {
        c.access(ld(i * 4 * 64), now);
        now += 10000;
    }

    const EventLogData d = log.data();
    ASSERT_FALSE(d.events.empty());
    const Event &ev = d.events.back();
    EXPECT_EQ(ev.kind, EventKind::Bypass);
    EXPECT_EQ(ev.reason, cache::BypassReason::AgeProtected);
    EXPECT_EQ(ev.way, kNoWay);
    EXPECT_EQ(epoch.current().bypasses, 1u);
}

TEST(EventLog, DescribeStatsExportsCounters)
{
    EventLog log({2, 1});
    log.attach(geom(1, 1), {});
    stats::Registry reg;
    log.describeStats(reg, "llc");
    for (int i = 0; i < 3; ++i) {
        log.onAccess(0, ld(0), false);
        log.onFill(0, 0, ld(0x40), 0);
    }
    EXPECT_EQ(reg.counterValue("llc.events.recorded"), 3u);
    EXPECT_EQ(reg.counterValue("llc.events.overwritten"), 1u);
    EXPECT_EQ(reg.counterValue("llc.events.resident"), 2u);
}

TEST(Epoch, ClosesAtBoundaryAndFlushesTail)
{
    EpochSampler s(4);
    s.attach(geom(1, 1), {});
    for (int i = 0; i < 10; ++i)
        s.onAccess(0, ofType(trace::AccessType::Load), i % 2 == 0);
    EXPECT_EQ(s.epochs(), 2u);
    EXPECT_EQ(s.current().accesses, 2u);
    s.finish();
    EXPECT_EQ(s.epochs(), 3u);
    // finish() is idempotent: no empty fourth epoch.
    s.finish();
    EXPECT_EQ(s.epochs(), 3u);
}

TEST(Epoch, LongerThanRunYieldsOnePartialEpoch)
{
    EpochSampler s(1000);
    s.attach(geom(1, 1), {});
    for (int i = 0; i < 5; ++i)
        s.onAccess(0, ofType(trace::AccessType::Load), false);

    stats::Registry reg;
    s.describeStats(reg, "llc"); // auto-finishes the tail
    EXPECT_EQ(s.epochs(), 1u);
    EXPECT_EQ(reg.counterValue("llc.epoch.count"), 1u);
    EXPECT_EQ(reg.counterValue("llc.epoch.length"), 1000u);
    EXPECT_EQ(reg.counterValue("llc.epoch.e0_accesses"), 5u);
    EXPECT_EQ(reg.counterValue("llc.epoch.e0_misses"), 5u);
}

TEST(Epoch, ExactMultipleLeavesNoEmptyTail)
{
    EpochSampler s(5);
    s.attach(geom(1, 1), {});
    for (int i = 0; i < 10; ++i)
        s.onAccess(0, ofType(trace::AccessType::Load), true);
    s.finish();
    EXPECT_EQ(s.epochs(), 2u);
}

TEST(Epoch, ProvidersSampledAtBoundaries)
{
    EpochSampler s(2);
    uint64_t occupancy = 0, rd = 0;
    s.attach(geom(1, 1),
             {[](const void *p) {
                  return *static_cast<const uint64_t *>(p);
              },
              &occupancy});
    s.setScalarProvider("rd", [&] { return rd; });

    occupancy = 11;
    rd = 3;
    s.onAccess(0, ofType(trace::AccessType::Load), false);
    s.onAccess(0, ofType(trace::AccessType::Load), false); // closes e0
    occupancy = 22;
    rd = 5;
    s.onAccess(0, ofType(trace::AccessType::Prefetch), true);

    stats::Registry reg;
    s.describeStats(reg, "ep");
    EXPECT_EQ(reg.counterValue("ep.epoch.e0_occupancy"), 11u);
    EXPECT_EQ(reg.counterValue("ep.epoch.e0_rd"), 3u);
    EXPECT_EQ(reg.counterValue("ep.epoch.e1_occupancy"), 22u);
    EXPECT_EQ(reg.counterValue("ep.epoch.e1_rd"), 5u);
    // Demand/non-demand split.
    EXPECT_EQ(reg.counterValue("ep.epoch.e0_demand_accesses"), 2u);
    EXPECT_EQ(reg.counterValue("ep.epoch.e1_demand_accesses"), 0u);
}

TEST(Epoch, EvictionAndHeatmapAccounting)
{
    EpochSampler s(100);
    s.attach(geom(4, 1), {});
    s.onAccess(2, ofType(trace::AccessType::Load), false);
    s.onAccess(2, ofType(trace::AccessType::Load), true);
    s.onAccess(3, ofType(trace::AccessType::Load), false);
    s.onEviction(0, 0, 0, ld(0), 6);
    s.onEviction(0, 0, 0, ld(0), 10);

    stats::Registry reg;
    s.describeStats(reg, "ep");
    EXPECT_EQ(reg.counterValue("ep.epoch.e0_evictions"), 2u);
    EXPECT_EQ(reg.counterValue("ep.epoch.e0_victim_priority_sum"), 16u);

    const stats::Snapshot snap = reg.snapshot();
    const auto *heat = snap.histogram("ep.epoch.set_accesses");
    ASSERT_NE(heat, nullptr);
    ASSERT_EQ(heat->buckets.size(), 4u);
    EXPECT_EQ(heat->buckets[2], 2u);
    EXPECT_EQ(heat->buckets[3], 1u);
    const auto *miss = snap.histogram("ep.epoch.set_misses");
    ASSERT_NE(miss, nullptr);
    EXPECT_EQ(miss->buckets[2], 1u);
    EXPECT_EQ(miss->buckets[3], 1u);
}

TEST(Epoch, ResetClearsSeries)
{
    EpochSampler s(2);
    s.attach(geom(1, 1), {});
    for (int i = 0; i < 6; ++i)
        s.onAccess(0, ofType(trace::AccessType::Load), false);
    ASSERT_EQ(s.epochs(), 3u);
    s.reset();
    EXPECT_EQ(s.epochs(), 0u);
    EXPECT_EQ(s.current().accesses, 0u);
    stats::Registry reg;
    s.describeStats(reg, "ep");
    EXPECT_EQ(reg.counterValue("ep.epoch.count"), 0u);
}

TEST(Epoch, SeriesExportedInKeyStringOrder)
{
    // Twelve closed epochs. The series is exported in string order
    // of its keys, so e10_* and e11_* sort between e0_* and e1_*,
    // and the scalar sorts among the fixed fields.
    EpochSampler s(1);
    s.attach(geom(1, 1), {});
    s.setScalarProvider("rd", [] { return uint64_t{0}; });
    for (int i = 0; i < 12; ++i)
        s.onAccess(0, ofType(trace::AccessType::Load), false);
    ASSERT_EQ(s.epochs(), 12u);

    stats::Registry reg;
    s.describeStats(reg, "p");
    std::vector<std::string> expected = {"p.epoch.length",
                                         "p.epoch.count"};
    for (const char *e :
         {"0", "10", "11", "1", "2", "3", "4", "5", "6", "7", "8", "9"})
        for (const char *f :
             {"accesses", "bypasses", "demand_accesses",
              "demand_misses", "evictions", "misses", "occupancy", "rd",
              "victim_priority_sum"})
            expected.push_back(std::string("p.epoch.e") + e + "_" + f);
    std::vector<std::string> keys;
    for (const auto &[path, value] : reg.snapshot().counters)
        keys.push_back(path);
    EXPECT_EQ(keys, expected);
}

TEST(Epoch, RejectsZeroLength)
{
    EXPECT_DEATH(EpochSampler(0), "epoch");
}

TEST(ChromeTrace, LanePackingFirstFit)
{
    std::vector<TraceSpan> spans(3);
    spans[0] = {"a", "cell", 0, 10, 0, {}};
    spans[1] = {"b", "cell", 5, 5, 0, {}}; // overlaps a -> 1
    spans[2] = {"c", "cell", 12, 3, 0, {}}; // lane 0 again
    assignLanes(spans);
    EXPECT_EQ(spans[0].tid, 0u);
    EXPECT_EQ(spans[1].tid, 1u);
    EXPECT_EQ(spans[2].tid, 0u);
}

TEST(ChromeTrace, ZeroDurationSpansShareLaneZero)
{
    std::vector<TraceSpan> spans(4);
    for (size_t i = 0; i < spans.size(); ++i)
        spans[i] = {"s", "cell", 0, 0, 0, {}};
    assignLanes(spans);
    for (const TraceSpan &s : spans)
        EXPECT_EQ(s.tid, 0u);
}

TEST(ChromeTrace, JsonSchemaRoundTrips)
{
    std::vector<TraceSpan> spans(1);
    spans[0] = {"w/p", "cell", 100, 250, 0,
                {{"workload", "\"w\""}, {"mips", "1.5"}}};
    const std::string json = chromeTraceJson(spans, "sweep");

    const stats::json::Value root = stats::json::parse(json);
    ASSERT_TRUE(root.isObject());
    EXPECT_TRUE(root.find("displayTimeUnit") != nullptr);
    const stats::json::Value *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 2u); // metadata + 1 span

    const stats::json::Value &meta = events->array[0];
    EXPECT_EQ(meta.find("ph")->string, "M");
    EXPECT_EQ(meta.find("name")->string, "process_name");

    const stats::json::Value &ev = events->array[1];
    EXPECT_EQ(ev.find("ph")->string, "X");
    EXPECT_EQ(ev.find("name")->string, "w/p");
    EXPECT_DOUBLE_EQ(ev.find("ts")->number, 100.0);
    EXPECT_DOUBLE_EQ(ev.find("dur")->number, 250.0);
    EXPECT_DOUBLE_EQ(ev.find("args")->find("mips")->number, 1.5);
}
