/**
 * @file
 * Google-benchmark microbenchmarks: per-access software cost of
 * each replacement policy (victim selection + state update). Not
 * a paper figure — it documents the simulation-speed tradeoffs of
 * the policies in this library.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "core/policy_factory.hh"
#include "obs/epoch.hh"
#include "obs/event_log.hh"
#include "util/rng.hh"

using namespace rlr;

namespace
{

void
policyBench(benchmark::State &state, const std::string &name)
{
    cache::CacheGeometry geom;
    geom.name = "LLC";
    geom.size_bytes = 2 * 1024 * 1024;
    geom.ways = 16;
    auto policy = core::makePolicy(name, 1);
    policy->bind(geom);

    util::Rng rng(7);
    std::vector<uint64_t> line_addrs(geom.ways);
    for (uint32_t w = 0; w < geom.ways; ++w) {
        line_addrs[w] = (w + 1) * 64ull;
    }

    for (auto _ : state) {
        cache::AccessContext ctx;
        ctx.set = static_cast<uint32_t>(
            rng.nextBounded(geom.numSets()));
        ctx.full_addr = rng.next() & ~0x3fULL;
        ctx.pc = 0x400000 + 4 * rng.nextBounded(64);
        ctx.type = trace::AccessType::Load;
        ctx.hit = false;
        const uint32_t way = policy->findVictim(ctx, line_addrs);
        ctx.way = way == cache::ReplacementPolicy::kBypass
                      ? 0
                      : way % geom.ways;
        policy->onAccess(ctx);
        benchmark::DoNotOptimize(way);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}

/** Zero-state backing memory with a fixed latency. */
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

/** Observability attachment for the cache-access benchmarks. */
enum class Tracing
{
    /** No EventLog / EpochSampler (the detached path: each hook
     *  site is one predicted null check). */
    Off,
    /** EventLog on every set. */
    Events,
    /** EventLog with 1-in-64 set sampling. */
    EventsSampled,
    /** EventLog on every set plus an EpochSampler. */
    EventsEpoch,
};

/**
 * Full cache-access cost (lookup + replacement + obs hooks) under
 * the chosen tracing attachment — the software overhead a sweep
 * pays for --events / --epoch.
 */
void
cacheAccessBench(benchmark::State &state, Tracing tracing)
{
    cache::CacheGeometry geom;
    geom.name = "LLC";
    geom.size_bytes = 64 * 1024; // 256 sets x 4 ways
    geom.ways = 4;
    geom.latency = 10;
    geom.mshrs = 8;
    FlatMemory mem;
    cache::Cache c(geom, core::makePolicy("LRU", 1), &mem);

    obs::EventLog events(
        {1 << 14,
         tracing == Tracing::EventsSampled ? 64u : 1u});
    obs::EpochSampler epoch(10000);
    if (tracing == Tracing::EventsEpoch)
        c.setObservers({&events, &epoch});
    else if (tracing != Tracing::Off)
        c.setObservers({&events});

    util::Rng rng(7);
    uint64_t now = 0;
    for (auto _ : state) {
        cache::MemRequest req;
        req.address = rng.nextBounded(4096) * 64;
        req.pc = 0x400000 + 4 * rng.nextBounded(64);
        req.type = trace::AccessType::Load;
        const uint64_t ready = c.access(req, now);
        now += 1000;
        benchmark::DoNotOptimize(ready);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}

} // namespace

BENCHMARK_CAPTURE(cacheAccessBench, tracing_off, Tracing::Off);
BENCHMARK_CAPTURE(cacheAccessBench, tracing_events,
                  Tracing::Events);
BENCHMARK_CAPTURE(cacheAccessBench, tracing_events_sampled,
                  Tracing::EventsSampled);
BENCHMARK_CAPTURE(cacheAccessBench, tracing_events_epoch,
                  Tracing::EventsEpoch);

BENCHMARK_CAPTURE(policyBench, LRU, std::string("LRU"));
BENCHMARK_CAPTURE(policyBench, DRRIP, std::string("DRRIP"));
BENCHMARK_CAPTURE(policyBench, SHiP, std::string("SHiP"));
BENCHMARK_CAPTURE(policyBench, SHiPpp, std::string("SHiP++"));
BENCHMARK_CAPTURE(policyBench, Hawkeye, std::string("Hawkeye"));
BENCHMARK_CAPTURE(policyBench, KPC_R, std::string("KPC-R"));
BENCHMARK_CAPTURE(policyBench, EVA, std::string("EVA"));
BENCHMARK_CAPTURE(policyBench, PDP, std::string("PDP"));
BENCHMARK_CAPTURE(policyBench, RLR, std::string("RLR"));
BENCHMARK_CAPTURE(policyBench, RLR_unopt,
                  std::string("RLR-unopt"));

BENCHMARK_MAIN();
