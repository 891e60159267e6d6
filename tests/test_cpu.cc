/** @file Tests for the O3 core model and branch predictor. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"
#include "util/bits.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"

using namespace rlr;
using namespace rlr::cpu;

namespace
{

/** Backing memory with configurable latency per address range. */
class StubMemory : public cache::MemoryLevel
{
  public:
    explicit StubMemory(uint64_t latency) : latency_(latency) {}

    uint64_t
    access(const cache::MemRequest &req, uint64_t now) override
    {
        ++count;
        (void)req;
        return now + latency_;
    }

    const std::string &name() const override { return name_; }

    uint64_t count = 0;

  private:
    uint64_t latency_;
    std::string name_ = "stub";
};

trace::Instruction
alu()
{
    trace::Instruction i;
    i.pc = 0x1000;
    i.kind = trace::InstrKind::Alu;
    return i;
}

trace::Instruction
loadTo(uint8_t dest, uint64_t addr, uint8_t src = trace::kNoReg)
{
    trace::Instruction i;
    i.pc = 0x2000;
    i.kind = trace::InstrKind::Load;
    i.mem_addr = addr;
    i.dest_reg = dest;
    i.src_regs[0] = src;
    return i;
}

/** Everything @p core exports under "core0" through describeStats. */
stats::Snapshot
exported(O3Core &core)
{
    stats::Registry reg;
    core.describeStats(reg, "core0");
    return reg.snapshot();
}

} // namespace

TEST(Gshare, LearnsStrongBias)
{
    GsharePredictor bp;
    int wrong = 0;
    for (int i = 0; i < 500; ++i)
        wrong += !bp.predictAndUpdate(0x400, true);
    EXPECT_LT(wrong, 30);
}

TEST(Gshare, LearnsAlternatingPattern)
{
    GsharePredictor bp;
    int wrong_tail = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool taken = (i % 2) == 0;
        const bool ok = bp.predictAndUpdate(0x500, taken);
        if (i >= 1000)
            wrong_tail += !ok;
    }
    // Global history makes alternation nearly perfectly
    // predictable.
    EXPECT_LT(wrong_tail, 50);
}

TEST(Gshare, TracksStats)
{
    GsharePredictor bp;
    bp.predictAndUpdate(0x1, true);
    EXPECT_EQ(bp.lookups(), 1u);
}

TEST(Gshare, PredictsAsTwoBitSatCounterTable)
{
    // The predictor is a table of 2-bit counters starting weakly
    // not-taken, indexed by (pc >> 2) ^ history. A reference table
    // of SatCounter(2, 1) must give the same prediction for every
    // branch of a long random stream, at two table shapes.
    for (const BranchPredictorConfig cfg :
         {BranchPredictorConfig{}, BranchPredictorConfig{6, 9}}) {
        GsharePredictor bp(cfg);
        std::vector<util::SatCounter> ref(1ULL << cfg.index_bits,
                                          util::SatCounter(2, 1));
        uint64_t history = 0;
        uint64_t wrong = 0;
        util::Rng rng(5);
        for (int i = 0; i < 1000000; ++i) {
            // 64 branch sites, each biased one way so counters
            // both saturate and flip.
            const uint64_t site = rng.nextBounded(64);
            const uint64_t pc = 0x400000 + 4 * site * 37;
            const bool taken = rng.chance(site % 3 == 0   ? 0.9
                                          : site % 3 == 1 ? 0.2
                                                          : 0.5);
            const size_t k =
                ((pc >> 2) ^ (history & util::mask(cfg.history_bits))) &
                util::mask(cfg.index_bits);
            const bool predicted = ref[k].value() >= 2;
            ASSERT_EQ(bp.predict(pc), predicted) << "branch " << i;
            ASSERT_EQ(bp.predictAndUpdate(pc, taken), predicted == taken)
                << "branch " << i;
            wrong += predicted != taken;
            if (taken)
                ++ref[k];
            else
                --ref[k];
            history = (history << 1) | (taken ? 1 : 0);
        }
        EXPECT_EQ(bp.lookups(), 1000000u);
        EXPECT_EQ(bp.mispredicts(), wrong);
    }
}

TEST(O3Core, WidthBoundsIpc)
{
    StubMemory mem(1);
    CoreConfig cfg;
    cfg.width = 3;
    O3Core core(cfg, 0, &mem, &mem);
    core.beginMeasurement();
    for (int i = 0; i < 3000; ++i)
        core.step(alu());
    EXPECT_LE(core.ipc(), 3.0);
    EXPECT_GT(core.ipc(), 1.0);
}

TEST(O3Core, IndependentLoadsOverlap)
{
    StubMemory mem(200);
    CoreConfig cfg;
    O3Core core(cfg, 0, &mem, &mem);
    core.beginMeasurement();
    // Independent loads to distinct registers: the 256-entry ROB
    // should overlap their latencies.
    for (int i = 0; i < 1000; ++i)
        core.step(loadTo(static_cast<uint8_t>(2 + (i % 32)),
                         0x10000 + 64 * i));
    const double ipc_parallel = core.ipc();

    // Dependent chain: each load's address depends on the
    // previous load.
    O3Core serial(cfg, 0, &mem, &mem);
    serial.beginMeasurement();
    for (int i = 0; i < 1000; ++i)
        serial.step(loadTo(1, 0x90000 + 64 * i, 1));
    const double ipc_serial = serial.ipc();

    EXPECT_GT(ipc_parallel, 4.0 * ipc_serial);
}

TEST(O3Core, DependentChainBoundByLatency)
{
    StubMemory mem(100);
    CoreConfig cfg;
    O3Core core(cfg, 0, &mem, &mem);
    core.beginMeasurement();
    for (int i = 0; i < 500; ++i)
        core.step(loadTo(1, 0x90000 + 64 * i, 1));
    // Each dependent load costs ~latency cycles.
    EXPECT_NEAR(static_cast<double>(core.measuredCycles()) / 500.0,
                100.0, 15.0);
}

TEST(O3Core, MispredictionCostsCycles)
{
    StubMemory mem(1);
    CoreConfig cfg;
    cfg.mispredict_penalty = 20;

    auto run_branches = [&](double taken_prob) {
        O3Core core(cfg, 0, &mem, &mem);
        core.beginMeasurement();
        uint64_t x = 12345;
        for (int i = 0; i < 4000; ++i) {
            trace::Instruction br;
            br.pc = 0x3000;
            br.kind = trace::InstrKind::Branch;
            x = x * 6364136223846793005ULL + 1;
            br.branch_taken =
                static_cast<double>(x >> 40) /
                    static_cast<double>(1 << 24) <
                taken_prob;
            core.step(br);
        }
        return core.ipc();
    };

    const double ipc_predictable = run_branches(1.0);
    const double ipc_random = run_branches(0.5);
    EXPECT_GT(ipc_predictable, 1.5 * ipc_random);
}

TEST(O3Core, StoresDoNotBlockRetirement)
{
    StubMemory slow(500);
    CoreConfig cfg;
    O3Core core(cfg, 0, &slow, &slow);
    // Warm the fetch path so the one-time I-fetch miss does not
    // dominate the measurement.
    trace::Instruction warm;
    warm.pc = 0x4000;
    warm.kind = trace::InstrKind::Alu;
    core.step(warm);
    core.beginMeasurement();
    for (int i = 0; i < 300; ++i) {
        trace::Instruction st;
        st.pc = 0x4000;
        st.kind = trace::InstrKind::Store;
        st.mem_addr = 0x20000 + 64 * i;
        core.step(st);
    }
    // Stores retire through the store buffer: IPC near width
    // despite 500-cycle memory.
    EXPECT_GT(core.ipc(), 1.0);
}

TEST(O3Core, RunFromGeneratorCountsInstructions)
{
    StubMemory mem(10);
    O3Core core(CoreConfig{}, 0, &mem, &mem);
    auto gen = trace::SyntheticGenerator(
        trace::findWorkload("416.gamess"), 5);
    core.run(gen, 5000);
    EXPECT_EQ(core.instructions(), 5000u);
    EXPECT_GT(core.cycles(), 0u);
}

TEST(O3Core, MeasurementWindowExcludesWarmup)
{
    StubMemory mem(10);
    O3Core core(CoreConfig{}, 0, &mem, &mem);
    for (int i = 0; i < 100; ++i)
        core.step(alu());
    core.beginMeasurement();
    EXPECT_EQ(core.measuredInstructions(), 0u);
    for (int i = 0; i < 50; ++i)
        core.step(alu());
    EXPECT_EQ(core.measuredInstructions(), 50u);
}

TEST(O3Core, CountersExportOnlyOnceTouched)
{
    // An ALU-only run touches no load, store or branch counter, so
    // none of them is exported, not even as zero.
    StubMemory mem(1);
    O3Core core(CoreConfig{}, 0, &mem, &mem);
    for (int i = 0; i < 1000; ++i)
        core.step(alu());
    const stats::Snapshot snap = exported(core);
    std::set<std::string> keys;
    for (const auto &[path, value] : snap.counters)
        keys.insert(path);
    EXPECT_EQ(keys.count("core0.instructions"), 1u);
    EXPECT_EQ(keys.count("core0.alu_ops"), 1u);
    for (const char *absent :
         {"loads", "stores", "branches", "branch_mispredicts",
          "mispredict_stall_cycles"})
        EXPECT_EQ(keys.count(std::string("core0.") + absent), 0u)
            << absent;
    EXPECT_EQ(snap.counter("core0.instructions"), 1000u);
    EXPECT_EQ(snap.counter("core0.alu_ops"), 1000u);

    // The measurement window zeroes the values and keeps the
    // touched set.
    core.beginMeasurement();
    const stats::Snapshot after = exported(core);
    std::vector<std::string> paths;
    for (const auto &[path, value] : after.counters)
        paths.push_back(path);
    EXPECT_EQ(paths, (std::vector<std::string>{
                         "core0.alu_ops", "core0.instructions",
                         "core0.instructions_retired", "core0.cycles"}));
    EXPECT_EQ(after.counter("core0.alu_ops"), 0u);
    EXPECT_EQ(after.counter("core0.instructions"), 0u);
}

TEST(O3Core, FullRobWrapsAndStallsOnHead)
{
    // A 4-entry ROB, width 1, every access 100 cycles. The first
    // fetch stalls dispatch to cycle 96 (100 minus the 4 hidden
    // fetch cycles); loads 1-4 dispatch at 96-99 and complete at
    // 196-199. Load 5 waits for the head (96 stall cycles), loads
    // 6-8 follow it at 197-199, load 9 waits for load 5 (96 more)
    // and load 10 completes at 397. The ring wraps twice, and
    // measuredCycles() must see load 10, which is still in flight
    // when dispatch has only reached cycle 298.
    StubMemory mem(100);
    CoreConfig cfg;
    cfg.rob_size = 4;
    cfg.width = 1;
    O3Core core(cfg, 0, &mem, &mem);
    core.beginMeasurement();
    for (uint64_t i = 0; i < 10; ++i)
        core.step(loadTo(static_cast<uint8_t>(2 + i % 8),
                         0x10000 + 64 * i));
    EXPECT_EQ(exported(core).counter("core0.rob_stall_cycles"), 192u);
    EXPECT_EQ(core.cycles(), 298u);
    EXPECT_EQ(core.measuredCycles(), 397u);
}
