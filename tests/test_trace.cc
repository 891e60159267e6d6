/** @file Tests for trace records, LLC traces and workload catalog. */

#include <gtest/gtest.h>

#include "trace/record.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

using namespace rlr::trace;

TEST(Record, AccessTypeNames)
{
    EXPECT_EQ(accessTypeName(AccessType::Load), "LD");
    EXPECT_EQ(accessTypeName(AccessType::Rfo), "RFO");
    EXPECT_EQ(accessTypeName(AccessType::Prefetch), "PF");
    EXPECT_EQ(accessTypeName(AccessType::Writeback), "WB");
}

TEST(Record, IsDemand)
{
    EXPECT_TRUE(isDemand(AccessType::Load));
    EXPECT_TRUE(isDemand(AccessType::Rfo));
    EXPECT_FALSE(isDemand(AccessType::Prefetch));
    EXPECT_FALSE(isDemand(AccessType::Writeback));
}

TEST(LlcTraceTest, CountsAccessTypes)
{
    LlcTrace trace;
    trace.append({0x400, 0x1000, AccessType::Load, 0});
    trace.append({0x404, 0x1040, AccessType::Load, 0});
    trace.append({0x408, 0x1000, AccessType::Prefetch, 0});
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.countType(AccessType::Load), 2u);
    EXPECT_EQ(trace.countType(AccessType::Prefetch), 1u);
}

TEST(Workloads, CatalogSizes)
{
    EXPECT_EQ(specWorkloads().size(), 29u);
    EXPECT_EQ(cloudWorkloads().size(), 5u);
    EXPECT_EQ(allWorkloads().size(), 34u);
    EXPECT_EQ(trainingWorkloads().size(), 8u);
}

TEST(Workloads, NamesUnique)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second)
            << "duplicate " << w.name;
}

TEST(Workloads, FindKnown)
{
    const auto w = findWorkload("429.mcf");
    EXPECT_EQ(w.name, "429.mcf");
    EXPECT_EQ(w.suite, "spec2006");
    EXPECT_FALSE(w.kernels.empty());
}

TEST(Workloads, TrainingSetMatchesPaper)
{
    // Figure 3's benchmarks.
    std::set<std::string> names;
    for (const auto &w : trainingWorkloads())
        names.insert(w.name);
    for (const char *expected :
         {"459.GemsFDTD", "403.gcc", "429.mcf", "450.soplex",
          "470.lbm", "437.leslie3d", "471.omnetpp",
          "483.xalancbmk"}) {
        EXPECT_TRUE(names.count(expected)) << expected;
    }
}

TEST(Workloads, ProfilesAreSane)
{
    for (const auto &w : allWorkloads()) {
        EXPECT_GT(w.mem_ratio, 0.0) << w.name;
        EXPECT_LT(w.mem_ratio + w.branch_ratio, 1.0) << w.name;
        EXPECT_GT(w.code_footprint, 0u) << w.name;
        EXPECT_FALSE(w.kernels.empty()) << w.name;
        for (const auto &k : w.kernels) {
            EXPECT_GT(k.working_set, 0u) << w.name;
            EXPECT_GT(k.weight, 0.0) << w.name;
        }
    }
}

TEST(VectorSource, ReplayAndReset)
{
    Instruction a;
    a.pc = 0x10;
    Instruction b;
    b.pc = 0x14;
    VectorInstructionSource src("test", {a, b});
    Instruction out;
    ASSERT_TRUE(src.next(out));
    EXPECT_EQ(out.pc, 0x10u);
    ASSERT_TRUE(src.next(out));
    EXPECT_EQ(out.pc, 0x14u);
    EXPECT_FALSE(src.next(out));
    src.reset();
    ASSERT_TRUE(src.next(out));
    EXPECT_EQ(out.pc, 0x10u);
}
