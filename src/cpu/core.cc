#include "cpu/core.hh"

#include <algorithm>

#include "cache/geometry.hh"
#include "util/logging.hh"

namespace rlr::cpu
{

O3Core::O3Core(CoreConfig config, uint8_t cpu_id,
               cache::MemoryLevel *l1i, cache::MemoryLevel *l1d)
    : config_(config), cpu_id_(cpu_id), l1i_(l1i), l1d_(l1d)
{
    util::ensure(l1i_ != nullptr && l1d_ != nullptr,
                 "O3Core: null cache port");
    util::ensure(config_.width > 0 && config_.rob_size > 0,
                 "O3Core: bad config");
    reg_ready_.fill(0);
    rob_.resize(config_.rob_size);
}

void
O3Core::fetch(uint64_t pc)
{
    const uint64_t line = cache::CacheGeometry::lineAddress(pc);
    if (line == last_fetch_line_)
        return;
    last_fetch_line_ = line;

    cache::MemRequest req;
    req.address = pc;
    req.pc = pc;
    req.type = trace::AccessType::Load;
    req.cpu = cpu_id_;
    const uint64_t ready = l1i_->access(req, cycle_);

    // A pipelined front end hides the L1I hit latency; anything
    // beyond that starves dispatch.
    const uint64_t hidden = cycle_ + config_.hidden_fetch_latency;
    if (ready > hidden) {
        totals_.fetch_stall_cycles += ready - hidden;
        cycle_ = ready - config_.hidden_fetch_latency;
    }
}

void
O3Core::makeRoomInRob()
{
    if (rob_count_ < config_.rob_size)
        return;
    // In-order retirement: dispatch of a new instruction into a
    // full ROB waits for the head to complete. Retire bandwidth is
    // folded into the dispatch width (both are `width`).
    const uint64_t head_done = rob_[rob_head_];
    if (++rob_head_ == config_.rob_size)
        rob_head_ = 0;
    --rob_count_;
    if (head_done > cycle_) {
        totals_.rob_stall_cycles += head_done - cycle_;
        cycle_ = head_done;
    }
}

void
O3Core::step(const trace::Instruction &instr)
{
    ++instructions_;

    fetch(instr.pc);
    makeRoomInRob();

    // Operand readiness.
    uint64_t exec_start = cycle_;
    for (const auto src : instr.src_regs) {
        if (src != trace::kNoReg)
            exec_start = std::max(exec_start, reg_ready_[src]);
    }

    uint64_t completion = exec_start + 1;
    switch (instr.kind) {
      case trace::InstrKind::Alu:
        ++totals_.alu_ops;
        break;
      case trace::InstrKind::Load: {
        ++totals_.loads;
        cache::MemRequest req;
        req.address = instr.mem_addr;
        req.pc = instr.pc;
        req.type = trace::AccessType::Load;
        req.cpu = cpu_id_;
        completion = l1d_->access(req, exec_start);
        break;
      }
      case trace::InstrKind::Store: {
        ++totals_.stores;
        cache::MemRequest req;
        req.address = instr.mem_addr;
        req.pc = instr.pc;
        req.type = trace::AccessType::Rfo;
        req.cpu = cpu_id_;
        // Stores retire through the store buffer; the core does
        // not wait for the RFO, but the traffic is real.
        l1d_->access(req, exec_start);
        completion = exec_start + 1;
        break;
      }
      case trace::InstrKind::Branch: {
        ++totals_.branches;
        const bool correct =
            bp_.predictAndUpdate(instr.pc, instr.branch_taken);
        if (!correct) {
            ++totals_.branch_mispredicts;
            // Redirect: the front end refills after the branch
            // resolves.
            const uint64_t redo =
                completion + config_.mispredict_penalty;
            if (redo > cycle_) {
                totals_.mispredict_stall_cycles += redo - cycle_;
                cycle_ = redo;
            }
            last_fetch_line_ = ~0ULL;
        }
        break;
      }
    }

    if (instr.dest_reg != trace::kNoReg)
        reg_ready_[instr.dest_reg] = completion;
    uint32_t tail = rob_head_ + rob_count_;
    if (tail >= config_.rob_size)
        tail -= config_.rob_size;
    rob_[tail] = std::max(completion, cycle_);
    ++rob_count_;

    // Dispatch width: `width` instructions enter per cycle.
    if (++width_slot_ >= config_.width) {
        width_slot_ = 0;
        ++cycle_;
    }
}

void
O3Core::run(trace::InstructionSource &source, uint64_t count)
{
    trace::Instruction instr;
    for (uint64_t i = 0; i < count; ++i) {
        // Cancellation checkpoint: the mask test keeps the
        // disabled path at one predicted branch per instruction.
        if ((i & (util::kCancelCheckInterval - 1)) == 0 &&
            cancel_ != nullptr && cancel_->cancelled()) {
            throw util::CancelledError(cancel_->reason());
        }
        if (!source.next(instr)) {
            source.reset();
            if (!source.next(instr))
                util::fatal("instruction source '{}' is empty",
                            source.name());
        }
        step(instr);
    }
}

void
O3Core::beginMeasurement()
{
    measure_start_instr_ = instructions_;
    measure_start_cycle_ = cycle_;
    base_ = totals_;
}

uint64_t
O3Core::measuredInstructions() const
{
    return instructions_ - measure_start_instr_;
}

uint64_t
O3Core::measuredCycles() const
{
    // Account for still-in-flight work at the measurement edge.
    uint64_t end = cycle_;
    for (uint32_t k = 0, i = rob_head_; k < rob_count_; ++k) {
        end = std::max(end, rob_[i]);
        if (++i == config_.rob_size)
            i = 0;
    }
    return end - measure_start_cycle_;
}

double
O3Core::ipc() const
{
    const uint64_t cyc = measuredCycles();
    return cyc == 0 ? 0.0
                    : static_cast<double>(measuredInstructions()) /
                          static_cast<double>(cyc);
}

void
O3Core::describeStats(stats::Registry &reg,
                      const std::string &prefix)
{
    // Touched counters only, in string order of their names.
    const auto bind = [&](const char *name, const uint64_t &total,
                          const uint64_t &base) {
        stats::bindTouchedCounter(reg, prefix + "." + name, total, base);
    };
    bind("alu_ops", totals_.alu_ops, base_.alu_ops);
    bind("branch_mispredicts", totals_.branch_mispredicts,
         base_.branch_mispredicts);
    bind("branches", totals_.branches, base_.branches);
    bind("fetch_stall_cycles", totals_.fetch_stall_cycles,
         base_.fetch_stall_cycles);
    bind("instructions", instructions_, measure_start_instr_);
    bind("loads", totals_.loads, base_.loads);
    bind("mispredict_stall_cycles", totals_.mispredict_stall_cycles,
         base_.mispredict_stall_cycles);
    bind("rob_stall_cycles", totals_.rob_stall_cycles,
         base_.rob_stall_cycles);
    bind("stores", totals_.stores, base_.stores);
    reg.bindCounter(prefix + ".instructions_retired",
                    [this] { return measuredInstructions(); },
                    "instructions in the measurement window");
    reg.bindCounter(prefix + ".cycles",
                    [this] { return measuredCycles(); },
                    "cycles in the measurement window");
    reg.formula(
        prefix + ".ipc",
        [this](const stats::Registry &) { return ipc(); },
        "instructions per cycle over the measurement window");
    reg.formula(
        prefix + ".branch_mispredict_rate",
        [this](const stats::Registry &) {
            return stats::hitRate(
                totals_.branch_mispredicts - base_.branch_mispredicts,
                totals_.branches - base_.branches);
        },
        "mispredicted fraction of measured branches");
}

} // namespace rlr::cpu
