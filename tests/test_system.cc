/** @file Integration tests for the full system and experiment
 *  drivers. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

using namespace rlr;
using namespace rlr::sim;

namespace
{

SimParams
quickParams()
{
    SimParams p;
    p.warmup_instructions = 20'000;
    p.sim_instructions = 80'000;
    return p;
}

} // namespace

TEST(System, BuildsPaperConfiguration)
{
    SystemConfig cfg;
    System sys(cfg);
    EXPECT_EQ(sys.numCores(), 1u);
    EXPECT_EQ(sys.llc().geometry().size_bytes, 2u * 1024 * 1024);
    EXPECT_EQ(sys.llc().geometry().ways, 16u);
    EXPECT_EQ(sys.l2(0).geometry().size_bytes, 256u * 1024);
    EXPECT_EQ(sys.l1d(0).geometry().latency, 4u);
}

TEST(System, MulticoreScalesLlc)
{
    SystemConfig cfg;
    cfg.num_cores = 4;
    System sys(cfg);
    EXPECT_EQ(sys.numCores(), 4u);
    EXPECT_EQ(sys.llc().geometry().size_bytes, 8u * 1024 * 1024);
}

TEST(Experiment, RunIsDeterministic)
{
    const auto a = runSingleCore("416.gamess", quickParams());
    const auto b = runSingleCore("416.gamess", quickParams());
    EXPECT_EQ(a.cores[0].cycles, b.cores[0].cycles);
    EXPECT_EQ(a.llc_demand_accesses, b.llc_demand_accesses);
}

TEST(Experiment, HierarchyFiltersAccesses)
{
    const auto r = runSingleCore("403.gcc", quickParams());
    // L1/L2 must filter most traffic: LLC demand accesses are a
    // small fraction of instructions.
    EXPECT_LT(r.llc_demand_accesses,
              r.total_instructions / 2);
    EXPECT_GT(r.total_instructions, 0u);
    EXPECT_GT(r.ipc(), 0.0);
}

TEST(Experiment, CaptureLlcTraceMatchesAccessCount)
{
    SimParams p = quickParams();
    const auto trace = captureLlcTrace("471.omnetpp", p);
    EXPECT_FALSE(trace.empty());
    // The trace contains demand, prefetch, and writeback records.
    EXPECT_GT(trace.countType(trace::AccessType::Load), 0u);
}

TEST(Experiment, SweepProducesAllCells)
{
    SweepOptions opts;
    opts.threads = 4;
    const auto cells = SweepRunner(quickParams(), opts)
                           .run({"416.gamess", "445.gobmk"},
                                {"LRU", "DRRIP"});
    EXPECT_FALSE(SweepRunner::anyFailed(cells));
    EXPECT_EQ(cells.size(), 4u);
    const auto &c = findCell(cells, "445.gobmk", "DRRIP");
    EXPECT_EQ(c.policy, "DRRIP");
    EXPECT_GT(c.result.ipc(), 0.0);
}

TEST(Experiment, MulticoreRunProducesPerCoreResults)
{
    SimParams p = quickParams();
    p.sim_instructions = 40'000;
    const auto r = runWorkloads(
        {"416.gamess", "445.gobmk", "416.gamess", "445.gobmk"}, p);
    ASSERT_EQ(r.cores.size(), 4u);
    for (const auto &core : r.cores) {
        EXPECT_GE(core.instructions, 40'000u);
        EXPECT_GT(core.ipc, 0.0);
    }
    EXPECT_EQ(r.total_instructions,
              r.cores[0].instructions + r.cores[1].instructions +
                  r.cores[2].instructions +
                  r.cores[3].instructions);
}

TEST(Experiment, SpeedupOverSelfIsUnity)
{
    const auto r = runSingleCore("445.gobmk", quickParams());
    EXPECT_NEAR(r.speedupOver(r), 1.0, 1e-9);
}

TEST(Experiment, RlrPolicyRunsInFullSystem)
{
    SimParams p = quickParams();
    p.llc_policy = "RLR";
    const auto r = runSingleCore("471.omnetpp", p);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_GT(r.llc_demand_accesses, 0u);
}

TEST(Experiment, KpcPrefetcherOption)
{
    SimParams p = quickParams();
    p.l2_prefetcher = L2Prefetcher::KpcP;
    const auto r = runSingleCore("462.libquantum", p);
    EXPECT_GT(r.ipc(), 0.0);
}

TEST(Experiment, NoPrefetcherOption)
{
    // With both prefetchers disabled, the streaming benchmark
    // loses the coverage the default system enjoys.
    SystemConfig off;
    off.l2_prefetcher = L2Prefetcher::None;
    off.l1d_prefetcher = false;
    System sys_off(off);
    auto gen = trace::makeGenerator("462.libquantum", 42);
    sys_off.core(0).run(*gen, 20'000);
    sys_off.resetStats();
    sys_off.core(0).run(*gen, 80'000);

    // Prefetching covers the stream at the L2: demand accesses
    // mostly hit lines the prefetcher brought in. Without it the
    // stream misses everywhere.
    SystemConfig on; // defaults: next-line L1 + IP-stride L2
    System sys_on(on);
    auto gen_on = trace::makeGenerator("462.libquantum", 42);
    sys_on.core(0).run(*gen_on, 20'000);
    sys_on.resetStats();
    sys_on.core(0).run(*gen_on, 80'000);

    const auto rate = [](cache::Cache &c) {
        const uint64_t acc = c.demandAccesses();
        return acc ? static_cast<double>(c.demandHits()) /
                         static_cast<double>(acc)
                   : 0.0;
    };
    EXPECT_GT(rate(sys_on.l2(0)), rate(sys_off.l2(0)) + 0.1);
}
