/**
 * @file
 * Trace-driven out-of-order core model (the paper's Table III
 * core: 6-stage pipeline, 3-issue O3, 256-entry ROB).
 *
 * The model exposes exactly the behaviours that make replacement
 * policies matter for IPC: a finite instruction window that fills
 * behind long-latency misses, register dependences that serialize
 * pointer chases (low MLP) but not streams (high MLP), store
 * traffic that creates RFOs and writebacks, instruction fetch
 * through the L1I, and branch mispredictions that throttle the
 * front end.
 */

#ifndef RLR_CPU_CORE_HH
#define RLR_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/memory_interface.hh"
#include "cpu/branch_predictor.hh"
#include "stats/registry.hh"
#include "stats/stats.hh"
#include "trace/record.hh"
#include "util/cancel_token.hh"

namespace rlr::cpu
{

/** Core configuration (defaults = the paper's Table III). */
struct CoreConfig
{
    uint32_t rob_size = 256;
    /** Dispatch/issue width (instructions per cycle). */
    uint32_t width = 3;
    /** Pipeline refill cycles after a mispredicted branch. */
    uint32_t mispredict_penalty = 10;
    /**
     * Fetch latency hidden by the pipelined front end; only L1I
     * latency beyond this stalls dispatch (i.e. L1I hits are
     * free, misses stall).
     */
    uint32_t hidden_fetch_latency = 4;
};

/** One simulated core. */
class O3Core
{
  public:
    /**
     * @param config core parameters
     * @param cpu_id core id propagated into memory requests
     * @param l1i instruction cache port
     * @param l1d data cache port
     */
    O3Core(CoreConfig config, uint8_t cpu_id,
           cache::MemoryLevel *l1i, cache::MemoryLevel *l1d);

    /** Execute exactly one instruction. */
    void step(const trace::Instruction &instr);

    /**
     * Run @p count instructions from @p source (rewinding finite
     * sources when they end).
     * @throws util::CancelledError at the next checkpoint (every
     *         util::kCancelCheckInterval instructions) once an
     *         attached cancel token has been cancelled.
     */
    void run(trace::InstructionSource &source, uint64_t count);

    /**
     * Attach a cooperative cancellation token polled by run()
     * (borrowed; null detaches — the default, whose only cost is
     * one predicted branch per checkpoint). run() polls it once
     * per kCancelCheckInterval instructions, which
     * test_cancel_token pins by instruction count.
     */
    void
    setCancelToken(const util::CancelToken *token)
    {
        cancel_ = token;
    }

    /** Current core cycle (monotonic). */
    uint64_t cycles() const { return cycle_; }

    /** Instructions executed since construction. */
    uint64_t instructions() const { return instructions_; }

    /**
     * Start the measurement window: IPC and stats are reported
     * from this point on (call at end of warmup).
     */
    void beginMeasurement();

    /** IPC over the measurement window. */
    double ipc() const;

    /** Instructions in the measurement window. */
    uint64_t measuredInstructions() const;

    /** Cycles in the measurement window. */
    uint64_t measuredCycles() const;

    const GsharePredictor &branchPredictor() const { return bp_; }

    /**
     * Bind core statistics under @p prefix: the instruction-mix
     * and stall counters this core has touched (see Counters),
     * measured instructions/cycles, and derived IPC and
     * branch-misprediction rate. Call it after the run: a counter
     * first touched later is not in the registry.
     */
    void describeStats(stats::Registry &reg,
                       const std::string &prefix);

    uint8_t cpuId() const { return cpu_id_; }

  private:
    /** Model front-end effects for this instruction's PC. */
    void fetch(uint64_t pc);

    /** Retire from the ROB until there is room for one more. */
    void makeRoomInRob();

    CoreConfig config_;
    uint8_t cpu_id_;
    cache::MemoryLevel *l1i_;
    cache::MemoryLevel *l1d_;
    /** Borrowed cancellation token; null = no checkpointing. */
    const util::CancelToken *cancel_ = nullptr;
    GsharePredictor bp_;

    uint64_t cycle_ = 0;
    uint64_t instructions_ = 0;
    uint32_t width_slot_ = 0;
    uint64_t last_fetch_line_ = ~0ULL;
    /**
     * Completion cycles of in-flight instructions: a fixed ring of
     * rob_size entries holding rob_count_ live ones from rob_head_
     * (oldest) on, so dispatch and retire never allocate.
     */
    std::vector<uint64_t> rob_;
    uint32_t rob_head_ = 0;
    uint32_t rob_count_ = 0;
    /** Ready cycle of each architectural register. */
    std::array<uint64_t, trace::kNumRegs> reg_ready_{};

    uint64_t measure_start_instr_ = 0;
    uint64_t measure_start_cycle_ = 0;

    /**
     * Lifetime instruction-mix and stall counts. Every bump adds at
     * least 1, as stats::bindTouchedCounter requires.
     */
    struct Counters
    {
        uint64_t alu_ops = 0;
        uint64_t branch_mispredicts = 0;
        uint64_t branches = 0;
        uint64_t fetch_stall_cycles = 0;
        uint64_t loads = 0;
        uint64_t mispredict_stall_cycles = 0;
        uint64_t rob_stall_cycles = 0;
        uint64_t stores = 0;
    };
    Counters totals_;
    /** totals_ at the last beginMeasurement(). */
    Counters base_;
};

} // namespace rlr::cpu

#endif // RLR_CPU_CORE_HH
