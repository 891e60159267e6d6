/** @file End-to-end properties across the whole library. */

#include <gtest/gtest.h>

#include "core/policy_factory.hh"
#include "ml/offline.hh"
#include "policies/belady.hh"
#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "tests/policy_test_util.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"

using namespace rlr;

namespace
{

sim::SimParams
quick()
{
    sim::SimParams p;
    p.warmup_instructions = 30'000;
    p.sim_instructions = 120'000;
    return p;
}

} // namespace

/**
 * Every factory policy must replay a captured LLC trace in the
 * offline simulator without losing accesses, and never exceed
 * Belady's hit count.
 */
class PolicyPipelineTest
    : public ::testing::TestWithParam<std::string>
{
  protected:
    static void
    SetUpTestSuite()
    {
        trace_ = new trace::LlcTrace(
            sim::captureLlcTrace("471.omnetpp", quick()));
        sim_ = new ml::OfflineSimulator(ml::OfflineConfig{},
                                        trace_);
        policies::BeladyPolicy belady(sim_->oracle());
        belady_hits_ = sim_->runPolicy(belady).hits;
    }

    static void
    TearDownTestSuite()
    {
        delete sim_;
        delete trace_;
        sim_ = nullptr;
        trace_ = nullptr;
    }

    static trace::LlcTrace *trace_;
    static ml::OfflineSimulator *sim_;
    static uint64_t belady_hits_;
};

trace::LlcTrace *PolicyPipelineTest::trace_ = nullptr;
ml::OfflineSimulator *PolicyPipelineTest::sim_ = nullptr;
uint64_t PolicyPipelineTest::belady_hits_ = 0;

TEST_P(PolicyPipelineTest, ReplaysTraceAndRespectsBelady)
{
    ASSERT_FALSE(trace_->empty());
    auto policy = core::makePolicy(GetParam(), 9);
    const auto stats = sim_->runPolicy(*policy);
    EXPECT_EQ(stats.accesses, trace_->size());
    EXPECT_EQ(stats.hits + stats.misses, stats.accesses);
    // MIN optimality: no online policy may beat Belady.
    EXPECT_LE(stats.hits, belady_hits_) << GetParam();
    // Victim accounting stays consistent.
    const auto &fs = sim_->featureStats();
    uint64_t victims = 0;
    for (const auto c : fs.victim_count)
        victims += c;
    EXPECT_EQ(victims, stats.evictions) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyPipelineTest,
    ::testing::ValuesIn(rlr::core::knownPolicies()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Integration, SweepInvariantToThreadCount)
{
    const std::vector<std::string> workloads = {"445.gobmk",
                                                "416.gamess"};
    const std::vector<std::string> policies = {"LRU", "RLR"};
    auto sweep = [&](size_t threads) {
        sim::SweepOptions opts;
        opts.threads = threads;
        const auto cells = sim::SweepRunner(quick(), opts)
                               .run(workloads, policies);
        EXPECT_FALSE(sim::SweepRunner::anyFailed(cells));
        return cells;
    };
    const auto serial = sweep(1);
    const auto parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &w : workloads) {
        for (const auto &p : policies) {
            const auto &a = sim::findCell(serial, w, p);
            const auto &b = sim::findCell(parallel, w, p);
            EXPECT_EQ(a.result.cores[0].cycles,
                      b.result.cores[0].cycles)
                << w << "/" << p;
            EXPECT_EQ(a.result.llc_demand_hits,
                      b.result.llc_demand_hits)
                << w << "/" << p;
        }
    }
}

TEST(Integration, CapturedTraceTypesArePlausible)
{
    const auto trace =
        sim::captureLlcTrace("470.lbm", quick());
    ASSERT_FALSE(trace.empty());
    // A write-heavy streaming workload must produce all four
    // access types at the LLC.
    EXPECT_GT(trace.countType(trace::AccessType::Load), 0u);
    EXPECT_GT(trace.countType(trace::AccessType::Prefetch), 0u);
    EXPECT_GT(trace.countType(trace::AccessType::Writeback), 0u);
    EXPECT_GT(trace.countType(trace::AccessType::Rfo), 0u);
}

TEST(Integration, RlrOverheadInvariantAcrossRuns)
{
    // The Table I numbers must not depend on simulation state.
    auto policy = core::makePolicy("RLR");
    cache::CacheGeometry g;
    g.size_bytes = 2 * 1024 * 1024;
    g.ways = 16;
    policy->bind(g);
    const double before = policy->overhead().totalKiB(g);

    const auto trace =
        sim::captureLlcTrace("403.gcc", quick());
    ml::OfflineSimulator sim(ml::OfflineConfig{}, &trace);
    sim.runPolicy(*policy);
    EXPECT_DOUBLE_EQ(policy->overhead().totalKiB(g), before);
}
