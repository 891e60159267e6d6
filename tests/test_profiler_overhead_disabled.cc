/**
 * @file
 * Compile-out verification for the profiler macros: this TU is
 * built with RLR_PROF_DISABLED, so every RLR_PROF_SCOPE* must
 * expand to `(void)0` — even with the profiler globally enabled,
 * a loop full of scopes records nothing and costs nothing.
 */

#define RLR_PROF_DISABLED 1

#include <gtest/gtest.h>

#include <chrono>

#include "obs/profiler.hh"

using namespace rlr;

namespace
{

/** A loop whose scopes are compiled out; @p sink defeats DCE. */
uint64_t
spinWithScopes(uint64_t iters)
{
    uint64_t sink = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        RLR_PROF_SCOPE("disabled.scope");
        RLR_PROF_SCOPE_SAMPLED("disabled.sampled", 4);
        RLR_PROF_SCOPE_IF_SAMPLED(true, "disabled.gated2", 2);
        sink += i ^ (sink >> 3);
    }
    return sink;
}

} // namespace

TEST(ProfilerCompiledOut, RecordsNothingEvenWhenEnabled)
{
    obs::Profiler::instance().setEnabled(false);
    obs::Profiler::instance().reset();
    obs::Profiler::instance().setEnabled(true);

    EXPECT_NE(spinWithScopes(100000), 0u);

    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    obs::Profiler::instance().setEnabled(false);
    EXPECT_EQ(data.spans, 0u);
    EXPECT_TRUE(data.roots.empty());
}

TEST(ProfilerCompiledOut, ScopesAreFree)
{
    obs::Profiler::instance().setEnabled(true);
    constexpr uint64_t kIters = 2'000'000;
    // Warm up, then time the compiled-out loop: with the macros
    // erased it must run at bare-loop speed — roughly nanoseconds
    // per iteration, far below what three live scope objects
    // (six clock reads) per iteration would cost.
    spinWithScopes(kIters);
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t sink = spinWithScopes(kIters);
    const auto t1 = std::chrono::steady_clock::now();
    obs::Profiler::instance().setEnabled(false);
    obs::Profiler::instance().reset();
    EXPECT_NE(sink, 0u);

    const double ns_per_iter =
        std::chrono::duration<double, std::nano>(t1 - t0)
            .count() /
        static_cast<double>(kIters);
    // Generous bound: a single steady_clock read alone is ~20ns;
    // three live scopes would be hundreds. The compiled-out loop
    // stays under 20ns/iter even on a loaded machine.
    EXPECT_LT(ns_per_iter, 20.0);
}
