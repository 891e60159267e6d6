/**
 * @file
 * The per-instruction path of a warmed sim::System allocates
 * nothing.
 *
 * This binary replaces the global operator new with a counting one.
 * Each case builds a single-core System and its generator, runs a
 * warm-up so that every lazily grown buffer (the MSHR heaps, the
 * prefetch proposal buffers, the prefetcher and policy tables, the
 * lazily registered counters) has reached its working size, and
 * then asserts that the next instructions make no heap allocation
 * at all. A string-keyed counter lookup on the hot path, a vector
 * built per access or a std::deque ROB each show up here as
 * thousands of allocations, whatever the host's speed. The
 * offline LLC simulator's policy replay is held to the same rule
 * per eviction.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>

#include "ml/offline.hh"
#include "policies/lru.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace
{

std::atomic<uint64_t> g_allocations{0};

} // namespace

// All three out of line, so that GCC's -Wmismatched-new-delete does
// not pair the malloc() and free() inside them with the new- and
// delete-expressions they serve once inlined.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace rlr;

namespace
{

constexpr uint64_t kWarmup = 300'000;
constexpr uint64_t kMeasured = 300'000;

class HotPath
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(HotPath, WarmedCellAllocatesNothing)
{
    const auto &[workload, policy] = GetParam();
    sim::SystemConfig cfg;
    cfg.llc_policy = policy;
    cfg.policy_seed = 42;
    sim::System system(cfg);
    auto gen = trace::makeGenerator(workload, 42);

    system.core(0).run(*gen, kWarmup);
    system.resetStats();

    const uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    system.core(0).run(*gen, kMeasured);
    const uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - before;

    EXPECT_EQ(system.core(0).instructions(), kWarmup + kMeasured);
    EXPECT_EQ(allocations, 0u)
        << workload << " x " << policy << " allocated "
        << allocations << " times in " << kMeasured
        << " warmed instructions";
}

TEST(HotPath, CounterSeesAllocations)
{
    // The replacement is live in this binary: a fresh std::string
    // past the small-string buffer allocates once.
    const uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    std::string s(64, 'x');
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before,
              1u);
    EXPECT_EQ(s.size(), 64u);
}

TEST(HotPath, OfflineLruReplayAllocatesNothingPerEviction)
{
    // A trace that thrashes every set of a 64-set, 16-way LLC:
    // 17 lines per set in a cycle, so under LRU every access after
    // the first lap misses and evicts. Replaying 20 or 40 laps
    // must allocate the same number of times (the first lap's
    // per-line history entries and the per-run state), so the
    // extra 20 laps of evictions allocate nothing.
    ml::OfflineConfig cfg;
    cfg.size_bytes = 64 * 16 * 64;
    cfg.ways = 16;
    const auto laps = [](int n) {
        trace::LlcTrace t;
        for (int lap = 0; lap < n; ++lap) {
            for (uint64_t line = 0; line < 64 * 17; ++line)
                t.append({0x400, line * 64, trace::AccessType::Load, 0});
        }
        return t;
    };
    const auto replay = [&cfg](const trace::LlcTrace &t,
                               ml::OfflineStats &stats) {
        ml::OfflineSimulator sim(cfg, &t);
        policies::LruPolicy lru;
        const uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        stats = sim.runPolicy(lru);
        return g_allocations.load(std::memory_order_relaxed) - before;
    };
    const trace::LlcTrace short_trace = laps(20);
    const trace::LlcTrace long_trace = laps(40);
    ml::OfflineStats short_stats;
    ml::OfflineStats long_stats;
    const uint64_t short_allocs = replay(short_trace, short_stats);
    const uint64_t long_allocs = replay(long_trace, long_stats);

    EXPECT_EQ(short_stats.hits + long_stats.hits, 0u);
    EXPECT_EQ(long_stats.evictions - short_stats.evictions,
              20u * 64 * 17);
    EXPECT_EQ(long_allocs, short_allocs)
        << "the 21,760 evictions of laps 21-40 allocated "
        << long_allocs - short_allocs << " times";
}

INSTANTIATE_TEST_SUITE_P(
    Cells, HotPath,
    ::testing::Combine(::testing::Values("416.gamess", "445.gobmk",
                                         "429.mcf", "471.omnetpp"),
                       ::testing::Values("LRU", "RLR")),
    [](const ::testing::TestParamInfo<HotPath::ParamType> &p) {
        std::string name = std::get<0>(p.param) + "_" +
                           std::get<1>(p.param);
        for (auto &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

} // namespace
