/**
 * @file
 * Unit tests for the scoped-span self-profiler (obs/profiler.hh):
 * tree shape and merge determinism across threads, sampling
 * scale-up, stable-JSON zeroing, JSON round-trip, the folded-
 * stacks rendering, and the span set a simulation records.
 *
 * The profiler is a process-wide singleton, so every test resets
 * it on entry and disables it on exit.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/profiler.hh"
#include "sim/experiment.hh"

using namespace rlr;

namespace
{

/** RAII: enabled+reset profiler for one test, off afterwards. */
struct ProfilerFixture
{
    ProfilerFixture()
    {
        obs::Profiler::instance().setEnabled(false);
        obs::Profiler::instance().reset();
        obs::Profiler::instance().setEnabled(true);
    }
    ~ProfilerFixture()
    {
        obs::Profiler::instance().setEnabled(false);
        obs::Profiler::instance().reset();
    }
};

/** Record `outer{ inner x3 }` @p reps times on this thread. */
void
recordNested(unsigned reps)
{
    for (unsigned r = 0; r < reps; ++r) {
        RLR_PROF_SCOPE("test.outer");
        for (int i = 0; i < 3; ++i) {
            RLR_PROF_SCOPE("test.inner");
        }
    }
}

const obs::ProfileNode *
findChild(const std::vector<obs::ProfileNode> &nodes,
          const std::string &name)
{
    for (const auto &n : nodes)
        if (n.name == name)
            return &n;
    return nullptr;
}

/** @return the first node named @p name at any depth. */
const obs::ProfileNode *
findAnywhere(const std::vector<obs::ProfileNode> &nodes,
             const std::string &name)
{
    for (const auto &n : nodes) {
        if (n.name == name)
            return &n;
        if (const auto *c = findAnywhere(n.children, name))
            return c;
    }
    return nullptr;
}

} // namespace

TEST(Profiler, TreeShapeAndCounts)
{
    ProfilerFixture fix;
    recordNested(5);
    const obs::ProfileData data =
        obs::Profiler::instance().collect();

    ASSERT_EQ(data.roots.size(), 1u);
    const obs::ProfileNode &outer = data.roots[0];
    EXPECT_EQ(outer.name, "test.outer");
    EXPECT_EQ(outer.calls, 5u);
    EXPECT_EQ(outer.recorded_calls, 5u);
    ASSERT_EQ(outer.children.size(), 1u);
    const obs::ProfileNode &inner = outer.children[0];
    EXPECT_EQ(inner.name, "test.inner");
    EXPECT_EQ(inner.calls, 15u);
    // Inclusive time nests: outer >= its only child, and self
    // accounts for the rest.
    EXPECT_GE(outer.total_ns, inner.total_ns);
    EXPECT_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
    EXPECT_EQ(data.spans, 20u);
    EXPECT_EQ(data.sites, 2u);
}

TEST(Profiler, DisabledRecordsNothing)
{
    obs::Profiler::instance().setEnabled(false);
    obs::Profiler::instance().reset();
    recordNested(3);
    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    EXPECT_EQ(data.spans, 0u);
    EXPECT_TRUE(data.roots.empty());
}

TEST(Profiler, SamplingScalesEstimatesUp)
{
    ProfilerFixture fix;
    constexpr unsigned kCalls = 1 << 10;
    for (unsigned i = 0; i < kCalls; ++i) {
        RLR_PROF_SCOPE_SAMPLED("test.sampled", 4);
    }
    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    const obs::ProfileNode *node =
        findChild(data.roots, "test.sampled");
    ASSERT_NE(node, nullptr);
    // 1-in-16 sampling: every 16th entry is timed, the estimate
    // scales back to the true call count exactly.
    EXPECT_EQ(node->recorded_calls, kCalls / 16);
    EXPECT_EQ(node->calls, kCalls);
    EXPECT_GT(node->total_ns, 0u);
}

TEST(Profiler, SuppressedParentSuppressesChildren)
{
    ProfilerFixture fix;
    constexpr unsigned kCalls = 64;
    for (unsigned i = 0; i < kCalls; ++i) {
        RLR_PROF_SCOPE_SAMPLED("test.sampled_parent", 6);
        RLR_PROF_SCOPE("test.child");
    }
    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    const obs::ProfileNode *parent =
        findChild(data.roots, "test.sampled_parent");
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->recorded_calls, 1u);
    // The child was only recorded inside the one sampled-in
    // parent — never as a root — and inherits the path shift.
    EXPECT_TRUE(findChild(data.roots, "test.child") == nullptr);
    const obs::ProfileNode *child =
        findChild(parent->children, "test.child");
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->recorded_calls, 1u);
    EXPECT_EQ(child->calls, kCalls);
}

TEST(Profiler, MultiThreadMergeIsDeterministic)
{
    ProfilerFixture fix;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([] { recordNested(7); });
    for (auto &th : threads)
        th.join();
    recordNested(2);

    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    EXPECT_EQ(data.threads, 5u);
    ASSERT_EQ(data.roots.size(), 1u);
    EXPECT_EQ(data.roots[0].calls, 4u * 7u + 2u);
    EXPECT_EQ(data.roots[0].children[0].calls,
              3u * (4u * 7u + 2u));

    // The merged tree (modulo wall-clock) is stable across
    // collects: stable JSON renders byte-identically.
    const std::string a = obs::profileToJson(data, true);
    const std::string b = obs::profileToJson(
        obs::Profiler::instance().collect(), true);
    EXPECT_EQ(a, b);
}

TEST(Profiler, StableJsonZeroesTimes)
{
    ProfilerFixture fix;
    recordNested(3);
    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    const std::string stable = obs::profileToJson(data, true);
    const obs::ProfileData parsed =
        obs::profileFromJson(stable);
    ASSERT_EQ(parsed.roots.size(), 1u);
    EXPECT_EQ(parsed.roots[0].calls, 3u);
    EXPECT_EQ(parsed.roots[0].total_ns, 0u);
    EXPECT_EQ(parsed.roots[0].self_ns, 0u);
    EXPECT_EQ(parsed.roots[0].p99_ns, 0u);
}

TEST(Profiler, JsonRoundTripPreservesTree)
{
    ProfilerFixture fix;
    recordNested(4);
    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    const obs::ProfileData back =
        obs::profileFromJson(obs::profileToJson(data));
    EXPECT_EQ(back.threads, data.threads);
    EXPECT_EQ(back.spans, data.spans);
    EXPECT_EQ(back.sites, data.sites);
    ASSERT_EQ(back.roots.size(), data.roots.size());
    EXPECT_EQ(back.roots[0].name, data.roots[0].name);
    EXPECT_EQ(back.roots[0].calls, data.roots[0].calls);
    EXPECT_EQ(back.roots[0].total_ns, data.roots[0].total_ns);
    EXPECT_EQ(back.roots[0].children[0].self_ns,
              data.roots[0].children[0].self_ns);
}

TEST(Profiler, RejectsForeignJson)
{
    EXPECT_THROW(obs::profileFromJson("{\"format\": \"nope\"}"),
                 std::runtime_error);
    EXPECT_THROW(obs::profileFromJson("not json"),
                 std::runtime_error);
}

TEST(Profiler, FoldedStacks)
{
    ProfilerFixture fix;
    recordNested(2);
    const std::string folded = obs::profileFolded(
        obs::Profiler::instance().collect());
    EXPECT_NE(folded.find("test.outer "), std::string::npos);
    EXPECT_NE(folded.find("test.outer;test.inner "),
              std::string::npos);
}

TEST(Profiler, TraceSpansFromRing)
{
    ProfilerFixture fix;
    recordNested(1);
    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    ASSERT_GE(data.recent.size(), 4u);
    const auto spans = obs::profileTraceSpans(data);
    ASSERT_EQ(spans.size(), data.recent.size());
    for (const auto &s : spans)
        EXPECT_EQ(s.pid, 2u);
    // Leaf name, not the full path, labels the slice.
    bool found_inner = false;
    for (const auto &s : spans)
        found_inner |= s.name == "test.inner";
    EXPECT_TRUE(found_inner);
}

TEST(Profiler, ResetClearsCounts)
{
    ProfilerFixture fix;
    recordNested(3);
    obs::Profiler::instance().reset();
    const obs::ProfileData data =
        obs::Profiler::instance().collect();
    EXPECT_EQ(data.spans, 0u);
    EXPECT_TRUE(data.roots.empty());
    EXPECT_TRUE(data.recent.empty());
}

TEST(Profiler, SimulationTimesLlcAccessesWithoutPerPhaseSpans)
{
    ProfilerFixture fix;
    sim::SimParams params;
    params.warmup_instructions = 20000;
    params.sim_instructions = 50000;
    sim::runWorkloads({"470.lbm"}, params);
    const obs::ProfileData data =
        obs::Profiler::instance().collect();

    // One sampled span per LLC access, with nothing nested in it:
    // per-phase and per-DRAM-access spans would mostly time
    // themselves.
    const obs::ProfileNode *llc =
        findAnywhere(data.roots, "sim.llc.access");
    ASSERT_NE(llc, nullptr);
    EXPECT_GT(llc->recorded_calls, 0u);
    EXPECT_TRUE(llc->children.empty());
    EXPECT_EQ(findAnywhere(data.roots, "sim.dram.access"), nullptr);
}
