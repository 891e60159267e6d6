/**
 * @file
 * Tests for the trace-inspection generator (tools/inspect_gen):
 * events-JSON round-trip, malformed-input rejection, the committed
 * golden report, Chrome-trace validation, and cross-validation of
 * the production simulator's victim statistics against the ml
 * offline pipeline (same trace, same policy, same units).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "cache/cache.hh"
#include "ml/offline.hh"
#include "obs/event_log.hh"
#include "obs/events_io.hh"
#include "policies/lru.hh"
#include "tests/policy_test_util.hh"
#include "tools/inspect_gen.hh"
#include "util/rng.hh"

using namespace rlr;
using namespace rlr::tools;

namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw std::runtime_error("cannot open " + path);
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
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

cache::MemRequest
request(uint64_t pc, uint64_t address, trace::AccessType type,
        uint8_t cpu)
{
    cache::MemRequest r;
    r.pc = pc;
    r.address = address;
    r.type = type;
    r.cpu = cpu;
    return r;
}

/** A small log with every event kind for round-trip tests. */
obs::CellEvents
sampleCell()
{
    obs::EventLog log({8, 1});
    cache::CacheGeometry geom;
    geom.size_bytes = 2 * 2 * cache::kLineBytes; // 2 sets x 2 ways
    geom.ways = 2;
    log.attach(geom, {});
    using trace::AccessType;
    const auto fill_a = request(0x400, 0x1000, AccessType::Load, 1);
    const auto hit_a = request(0x404, 0x1010, AccessType::Rfo, 1);
    const auto fill_b = request(0x408, 0x2000, AccessType::Prefetch, 0);
    const auto fill_c = request(0x40c, 0x3000, AccessType::Load, 0);
    log.onAccess(0, fill_a, false);
    log.onFill(0, 0, fill_a, 3);
    log.onAccess(0, hit_a, true);
    log.onHit(0, 0, hit_a, 2);
    log.onAccess(0, fill_b, false);
    log.onFill(0, 1, fill_b, 1);
    log.onAccess(0, fill_c, false);
    log.onEviction(0, 0, 0x1000, fill_c, 9);
    log.onFill(0, 0, fill_c, 0);
    log.onBypass(1, request(0x410, 0x4040, AccessType::Load, 0),
                 cache::BypassReason::AgeProtected);

    obs::CellEvents cell;
    cell.workload = "wl \"quoted\"";
    cell.policy = "LRU";
    // Above 2^53: must survive the JSON round-trip exactly.
    cell.seed = 13543642730225124502ull;
    cell.log = log.data();
    return cell;
}

} // namespace

TEST(EventsIo, RoundTripPreservesEverything)
{
    const std::vector<obs::CellEvents> cells = {sampleCell()};
    const std::string json = obs::eventsToJson(cells);
    const auto back = obs::eventsFromJson(json);

    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].workload, cells[0].workload);
    EXPECT_EQ(back[0].policy, cells[0].policy);
    EXPECT_EQ(back[0].seed, cells[0].seed);
    EXPECT_EQ(back[0].log.ways, cells[0].log.ways);
    EXPECT_EQ(back[0].log.recorded, cells[0].log.recorded);
    EXPECT_EQ(back[0].log.set_accesses,
              cells[0].log.set_accesses);
    EXPECT_EQ(back[0].log.set_misses, cells[0].log.set_misses);
    ASSERT_EQ(back[0].log.events.size(),
              cells[0].log.events.size());
    for (size_t i = 0; i < back[0].log.events.size(); ++i)
        EXPECT_EQ(back[0].log.events[i], cells[0].log.events[i])
            << "event " << i;
}

TEST(EventsIo, MalformedInputsThrow)
{
    const std::string good =
        obs::eventsToJson({sampleCell()});

    EXPECT_THROW(obs::eventsFromJson("[]"), std::runtime_error);
    EXPECT_THROW(obs::eventsFromJson("{\"version\": 2}"),
                 std::runtime_error);
    EXPECT_THROW(
        obs::eventsFromJson("{\"version\": 1, \"cells\": 4}"),
        std::runtime_error);

    // Event row with the wrong arity.
    std::string bad = good;
    const size_t open = bad.find("[", bad.find("\"events\""));
    ASSERT_NE(open, std::string::npos);
    bad.replace(bad.find("[", open + 1), 0, "[1, 2], ");
    EXPECT_THROW(obs::eventsFromJson(bad), std::runtime_error);

    // Out-of-range enum value (kind column).
    std::string bad_kind = good;
    const size_t row = bad_kind.find("[", open + 1);
    const size_t comma = bad_kind.find(",", row);
    bad_kind.replace(comma + 1, bad_kind.find(",", comma + 1) -
                                    comma - 1,
                     " 9");
    EXPECT_THROW(obs::eventsFromJson(bad_kind),
                 std::runtime_error);

    // Non-integer seed string.
    std::string bad_seed = good;
    const size_t seed_pos = bad_seed.find("\"seed\": \"");
    ASSERT_NE(seed_pos, std::string::npos);
    bad_seed.replace(seed_pos + 9, 4, "zzzz");
    EXPECT_THROW(obs::eventsFromJson(bad_seed),
                 std::runtime_error);
}

TEST(Inspect, GoldenReportMatches)
{
    const std::string fixture =
        readFile(std::string(RLR_TEST_DATA_DIR) +
                 "/events_fixture.json");
    InspectOptions opts;
    opts.title = "Golden trace inspection";
    opts.source = "events_fixture.json";
    const std::string report = generateInspect(fixture, opts);
    const std::string golden =
        readFile(std::string(RLR_TEST_DATA_DIR) +
                 "/inspect_golden.md");
    EXPECT_EQ(report, golden)
        << "inspect output drifted from tests/data/"
           "inspect_golden.md; run scripts/update_golden.sh";
}

TEST(Inspect, DeterministicAndStructured)
{
    const std::vector<obs::CellEvents> cells = {sampleCell()};
    InspectOptions opts;
    opts.source = "unit";
    const std::string a = generateInspect(cells, opts);
    const std::string b = generateInspect(cells, opts);
    EXPECT_EQ(a, b);

    // The single eviction and the bypass both render.
    EXPECT_NE(a.find("### Decision mix"), std::string::npos);
    EXPECT_NE(a.find("### Bypass reasons"), std::string::npos);
    EXPECT_NE(a.find("age_protected"), std::string::npos);
    EXPECT_NE(a.find("### Victim age by last access type"),
              std::string::npos);
    EXPECT_NE(a.find("### Victim hit counts"), std::string::npos);
    EXPECT_NE(a.find("### Victim recency"), std::string::npos);
    EXPECT_NE(a.find("wl \"quoted\" / LRU"), std::string::npos);
}

TEST(Inspect, VictimStatsAggregation)
{
    const obs::CellEvents cell = sampleCell();
    const VictimStats vs = victimStats(cell.log);
    EXPECT_EQ(vs.evictions, 1u);
    // The victim (line 0x1000) was hit once before eviction.
    EXPECT_EQ(vs.victims_one_hit, 1u);
    EXPECT_EQ(vs.victims_zero_hits, 0u);
    // Last touched by the RFO hit at set-access 2, evicted at 4.
    const auto rfo = static_cast<size_t>(trace::AccessType::Rfo);
    EXPECT_EQ(vs.victim_count[rfo], 1u);
    EXPECT_EQ(vs.victim_age_sum[rfo], 2u);
    EXPECT_DOUBLE_EQ(vs.avgVictimAge(trace::AccessType::Rfo), 2.0);
    ASSERT_EQ(vs.victim_recency.size(), 2u);
    EXPECT_EQ(vs.victim_recency[0], 1u); // LRU victim
}

TEST(Inspect, CheckChromeTraceRejectsBadDocuments)
{
    EXPECT_THROW(checkChromeTrace("[]"), std::runtime_error);
    EXPECT_THROW(checkChromeTrace("{}"), std::runtime_error);
    EXPECT_THROW(checkChromeTrace(
                     "{\"traceEvents\": [{\"name\": \"x\"}]}"),
                 std::runtime_error);
    // An "X" event without ts/dur.
    EXPECT_THROW(
        checkChromeTrace("{\"traceEvents\": [{\"name\": \"x\", "
                         "\"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 0}]}"),
        std::runtime_error);
    // Minimal valid documents pass.
    EXPECT_EQ(checkChromeTrace("{\"traceEvents\": []}"), 0u);
    EXPECT_EQ(
        checkChromeTrace("{\"traceEvents\": [{\"name\": \"x\", "
                         "\"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
                         "\"ts\": 0, \"dur\": 5}]}"),
        1u);
}

TEST(Inspect, CrossValidationAgainstOfflinePipeline)
{
    // The same load-only trace, the same LRU policy, the same
    // 16-set x 4-way shape: the production Cache + EventLog path
    // must reproduce the ml offline pipeline's Fig-5/6/7 victim
    // statistics (both count victim age in set accesses and rank
    // recency with 0 = LRU).
    util::Rng rng(123);
    std::vector<uint64_t> lines;
    for (int i = 0; i < 3000; ++i)
        lines.push_back(rng.nextBounded(192));
    const trace::LlcTrace llc_trace = test::loadTrace(lines);

    // Offline pipeline.
    ml::OfflineSimulator sim(test::smallOffline(), &llc_trace);
    policies::LruPolicy offline_lru;
    const auto offline = sim.runPolicy(offline_lru);
    ASSERT_GT(offline.evictions, 0u);
    const ml::FeatureStats &fs = sim.featureStats();

    // Production cache with an attached event log, replaying the
    // identical stream (accesses spaced so no MSHR merges skew
    // the hit/miss sequence).
    cache::CacheGeometry geom;
    geom.name = "LLC";
    geom.size_bytes = test::smallOffline().size_bytes;
    geom.ways = test::smallOffline().ways;
    geom.latency = 10;
    geom.mshrs = 8;
    FlatMemory mem;
    cache::Cache c(geom, std::make_unique<policies::LruPolicy>(),
                   &mem);
    obs::EventLog log({1 << 16, 1});
    c.setObservers({&log});
    uint64_t now = 0;
    for (size_t i = 0; i < llc_trace.size(); ++i) {
        cache::MemRequest req;
        req.address = llc_trace[i].address;
        req.pc = llc_trace[i].pc;
        req.type = llc_trace[i].type;
        c.access(req, now);
        now += 10000;
    }

    const VictimStats vs = victimStats(log.data());

    // Eviction decisions line up one-for-one.
    EXPECT_EQ(vs.evictions, offline.evictions);
    EXPECT_EQ(vs.victims_zero_hits, fs.victims_zero_hits);
    EXPECT_EQ(vs.victims_one_hit, fs.victims_one_hit);
    EXPECT_EQ(vs.victims_multi_hits, fs.victims_multi_hits);
    for (size_t t = 0; t < trace::kNumAccessTypes; ++t) {
        EXPECT_EQ(vs.victim_count[t], fs.victim_count[t])
            << "type " << t;
    }
    ASSERT_EQ(vs.victim_recency.size(), fs.victim_recency.size());
    for (size_t r = 0; r < vs.victim_recency.size(); ++r) {
        EXPECT_EQ(vs.victim_recency[r], fs.victim_recency[r])
            << "recency " << r;
    }
    // Ages use the same units; allow a +-1-access-per-victim
    // tolerance on the aggregate in case of boundary-counting
    // differences between the two pipelines.
    for (size_t t = 0; t < trace::kNumAccessTypes; ++t) {
        const double a = static_cast<double>(vs.victim_age_sum[t]);
        const double b = static_cast<double>(fs.victim_age_sum[t]);
        EXPECT_NEAR(a, b,
                    static_cast<double>(vs.victim_count[t]))
            << "type " << t;
    }
}
