/** @file Property tests for the synthetic workload generators. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
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

namespace
{

/** FNV-1a (64-bit) over the bytes of @p v, little-endian. */
void
fnv1a(uint64_t &h, uint64_t v, int bytes = 8)
{
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/** FNV-1a of the next @p n instructions of @p gen, every field. */
uint64_t
streamFingerprint(InstructionSource &gen, int n)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    Instruction in;
    for (int i = 0; i < n; ++i) {
        gen.next(in);
        fnv1a(h, in.pc);
        fnv1a(h, in.mem_addr);
        fnv1a(h, in.branch_target);
        fnv1a(h, static_cast<uint64_t>(in.kind), 1);
        fnv1a(h, in.branch_taken ? 1 : 0, 1);
        fnv1a(h, in.dest_reg, 1);
        fnv1a(h, in.src_regs[0], 1);
        fnv1a(h, in.src_regs[1], 1);
    }
    return h;
}

/**
 * Hand-made profiles whose knobs take the generator's uncommon
 * paths: sizes that are not powers of two, working sets that are
 * not a multiple of the stride, a stride larger than its working
 * set, zero stride and zero PCs, zero-weight kernels, and ratios
 * at and past the ends of [0, 1].
 */
std::vector<WorkloadProfile>
edgeProfiles()
{
    auto kernel = [](KernelKind kind, uint64_t ws, uint64_t stride,
                     double weight) {
        KernelSpec k;
        k.kind = kind;
        k.working_set = ws;
        k.stride = stride;
        k.weight = weight;
        return k;
    };
    std::vector<WorkloadProfile> out;

    WorkloadProfile odd;
    odd.name = "edge.odd_sizes";
    odd.suite = "test";
    odd.mem_ratio = 0.5;
    odd.branch_ratio = 0.3;
    odd.branch_noise = 0.25;
    odd.code_footprint = 5002;
    odd.local_frac = 0.3;
    odd.local_ws = 3000;
    odd.local_write_frac = 0.45;
    odd.kernels = {
        kernel(KernelKind::Loop, 100000, 192, 1.0),
        kernel(KernelKind::Stream, 70000, 64, 2.0),
        kernel(KernelKind::Strided, 3 * 65536, 4160, 1.0),
        kernel(KernelKind::HotCold, 1000 * 64, 64, 1.5),
        kernel(KernelKind::PointerChase, 777 * 64, 64, 1.0),
        kernel(KernelKind::ScanThrash, 999 * 64, 64, 1.0),
        kernel(KernelKind::Strided, 640, 1000, 0.5),
        kernel(KernelKind::Loop, 4096, 0, 0.25),
        kernel(KernelKind::Stream, 1 << 20, 64, 0.0),
    };
    odd.kernels[0].shuffled = true;
    odd.kernels[0].num_pcs = 3;
    odd.kernels[1].write_frac = 0.2;
    odd.kernels[3].zipf_alpha = 0.9;
    odd.kernels[3].num_pcs = 5;
    odd.kernels[5].phase_hot = 37;
    odd.kernels[5].phase_scan = 101;
    odd.kernels[5].num_pcs = 0;
    odd.kernels[6].write_frac = 1.0;
    out.push_back(odd);

    WorkloadProfile pow2;
    pow2.name = "edge.pow2_sizes";
    pow2.suite = "test";
    pow2.code_footprint = 8192;
    pow2.local_ws = 8192;
    pow2.kernels = {
        kernel(KernelKind::HotCold, 1 << 16, 64, 1.0),
        kernel(KernelKind::Loop, 1 << 14, 128, 1.0),
        kernel(KernelKind::ScanThrash, 1 << 15, 64, 1.0),
        kernel(KernelKind::PointerChase, 64, 64, 0.1),
    };
    pow2.kernels[0].zipf_alpha = 1.0;
    pow2.kernels[0].num_pcs = 8;
    pow2.kernels[1].shuffled = true;
    pow2.kernels[2].phase_hot = 1;
    pow2.kernels[2].phase_scan = 0;
    out.push_back(pow2);

    WorkloadProfile all_mem;
    all_mem.name = "edge.all_mem";
    all_mem.suite = "test";
    all_mem.mem_ratio = 1.0;
    all_mem.branch_ratio = 0.0;
    all_mem.local_frac = 1.0;
    all_mem.local_ws = 5 * 64;
    all_mem.local_write_frac = 1.0;
    all_mem.code_footprint = 0;
    all_mem.kernels = {kernel(KernelKind::Loop, 0, 64, 1.0)};
    out.push_back(all_mem);

    WorkloadProfile no_mem;
    no_mem.name = "edge.no_mem";
    no_mem.suite = "test";
    no_mem.mem_ratio = 0.0;
    no_mem.branch_ratio = 1.0;
    no_mem.branch_noise = 1.0;
    no_mem.kernels = {kernel(KernelKind::Stream, 1 << 20, 64, 1.0)};
    out.push_back(no_mem);

    WorkloadProfile over;
    over.name = "edge.ratios_past_one";
    over.suite = "test";
    over.mem_ratio = 0.7;
    over.branch_ratio = 0.6;
    over.branch_noise = -0.5;
    over.local_frac = 0.1;
    over.local_write_frac = 2.0;
    over.kernels = {kernel(KernelKind::Strided, 1 << 18, 320, 1.0),
                    kernel(KernelKind::HotCold, 3 << 10, 64, 1.0)};
    over.kernels[0].write_frac = -1.0;
    over.kernels[1].zipf_alpha = 0.5;
    out.push_back(over);
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(Synthetic, StreamsMatchCommittedFingerprints)
{
    // Every catalog profile, plus the edge profiles, at two seeds:
    // the FNV-1a of the first 200k instructions must match the
    // golden, and so must the same count replayed after reset().
    // Pins the generator's output bit for bit, for profiles and
    // lengths the figure digests never reach.
    constexpr int kInstructions = 200000;
    auto profiles = allWorkloads();
    for (auto &p : edgeProfiles())
        profiles.push_back(std::move(p));

    std::string actual;
    for (const auto &profile : profiles) {
        for (const uint64_t seed : {1ULL, 42ULL}) {
            SyntheticGenerator gen(profile, seed);
            const uint64_t first = streamFingerprint(gen, kInstructions);
            gen.reset();
            const uint64_t replay =
                streamFingerprint(gen, kInstructions);
            EXPECT_EQ(replay, first) << profile.name << " seed " << seed;
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(first));
            actual += profile.name + " " + std::to_string(seed) + " " +
                      hex + "\n";
        }
    }

    const std::string golden = readFile(
        std::string(RLR_TEST_DATA_DIR) + "/generator_fingerprints.txt");
    std::string expected;
    std::istringstream lines(golden);
    for (std::string line; std::getline(lines, line);) {
        if (!line.empty() && line[0] != '#')
            expected += line + "\n";
    }
    EXPECT_EQ(actual, expected)
        << "tests/data/generator_fingerprints.txt does not match the "
           "generator; its data lines should read:\n"
        << actual;
}
