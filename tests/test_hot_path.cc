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
 * thousands of allocations, whatever the host's speed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>

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
