/** @file Property tests for the synthetic workload generators. */

#include <gtest/gtest.h>

#include <unordered_set>

#include "trace/synthetic.hh"
#include "trace/workloads.hh"

using namespace rlr::trace;

TEST(Synthetic, DeterministicForSeed)
{
    auto a = makeGenerator("403.gcc", 7);
    auto b = makeGenerator("403.gcc", 7);
    Instruction ia, ib;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(a->next(ia));
        ASSERT_TRUE(b->next(ib));
        EXPECT_EQ(ia.pc, ib.pc);
        EXPECT_EQ(ia.mem_addr, ib.mem_addr);
        EXPECT_EQ(static_cast<int>(ia.kind),
                  static_cast<int>(ib.kind));
    }
}

TEST(Synthetic, ResetReproducesStream)
{
    auto gen = makeGenerator("471.omnetpp", 9);
    std::vector<uint64_t> first;
    Instruction instr;
    for (int i = 0; i < 500; ++i) {
        gen->next(instr);
        first.push_back(instr.pc ^ instr.mem_addr);
    }
    gen->reset();
    for (int i = 0; i < 500; ++i) {
        gen->next(instr);
        EXPECT_EQ(instr.pc ^ instr.mem_addr, first[i]) << i;
    }
}

TEST(Synthetic, DifferentSeedsDiffer)
{
    auto a = makeGenerator("429.mcf", 1);
    auto b = makeGenerator("429.mcf", 2);
    Instruction ia, ib;
    int same = 0;
    for (int i = 0; i < 500; ++i) {
        a->next(ia);
        b->next(ib);
        same += ia.mem_addr == ib.mem_addr &&
                ia.kind == ib.kind;
    }
    EXPECT_LT(same, 400);
}

TEST(Synthetic, ChaseLoadsAreDependent)
{
    // astar is chase-heavy: dependent loads through register 1
    // must appear.
    auto gen = makeGenerator("473.astar", 3);
    Instruction instr;
    int dependent = 0;
    for (int i = 0; i < 5000; ++i) {
        gen->next(instr);
        if (instr.kind == InstrKind::Load &&
            instr.src_regs[0] == 1 && instr.dest_reg == 1)
            ++dependent;
    }
    EXPECT_GT(dependent, 100);
}

/** Per-workload stream sanity, parameterized over the catalog. */
class WorkloadStreamTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadStreamTest, StreamStatisticsMatchProfile)
{
    const auto profile = findWorkload(GetParam());
    SyntheticGenerator gen(profile, 1234);
    Instruction instr;
    const int n = 20000;
    int mem = 0, branches = 0;
    std::unordered_set<uint64_t> code_lines;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(gen.next(instr));
        EXPECT_NE(instr.pc, 0u);
        switch (instr.kind) {
          case InstrKind::Load:
          case InstrKind::Store:
            ++mem;
            EXPECT_NE(instr.mem_addr, 0u);
            break;
          case InstrKind::Branch:
            ++branches;
            EXPECT_NE(instr.branch_target, 0u);
            break;
          case InstrKind::Alu:
            code_lines.insert(instr.pc >> 6);
            break;
        }
    }
    // Ratios within loose tolerance of the profile.
    EXPECT_NEAR(static_cast<double>(mem) / n, profile.mem_ratio,
                0.03)
        << profile.name;
    EXPECT_NEAR(static_cast<double>(branches) / n,
                profile.branch_ratio, 0.03)
        << profile.name;
    // Code footprint is exercised (at least a few lines).
    EXPECT_GT(code_lines.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadStreamTest,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &w : allWorkloads())
            names.push_back(w.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        std::string name = param_info.param;
        for (auto &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Synthetic, KernelAddressesStayInRegions)
{
    // Each kernel's addresses live in its own 2^40 region.
    auto gen = makeGenerator("450.soplex", 77);
    Instruction instr;
    for (int i = 0; i < 20000; ++i) {
        gen->next(instr);
        if (instr.mem_addr == 0)
            continue;
        const uint64_t region = instr.mem_addr >> 40;
        // Regions: 0x7f.. for locals, 1..N for kernels.
        EXPECT_TRUE(region >= 1);
    }
}

TEST(Synthetic, ShuffledLoopDefeatsStridePatterns)
{
    // A shuffled loop's consecutive deltas must not be constant.
    KernelSpec k;
    k.kind = KernelKind::Loop;
    k.working_set = 64 * 1024;
    k.shuffled = true;
    WorkloadProfile p;
    p.name = "shuftest";
    p.suite = "test";
    p.mem_ratio = 1.0;
    p.branch_ratio = 0.0;
    p.local_frac = 0.0;
    p.kernels = {k};
    SyntheticGenerator gen(p, 5);
    Instruction instr;
    std::vector<int64_t> deltas;
    uint64_t prev = 0;
    for (int i = 0; i < 200; ++i) {
        gen.next(instr);
        if (prev != 0)
            deltas.push_back(
                static_cast<int64_t>(instr.mem_addr) -
                static_cast<int64_t>(prev));
        prev = instr.mem_addr;
    }
    int constant_runs = 0;
    for (size_t i = 1; i < deltas.size(); ++i)
        constant_runs += deltas[i] == deltas[i - 1];
    EXPECT_LT(constant_runs, 20);
}
