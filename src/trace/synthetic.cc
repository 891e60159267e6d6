#include "trace/synthetic.hh"

#include <algorithm>
#include <numeric>

#include "util/bits.hh"
#include "util/logging.hh"

namespace rlr::trace
{

namespace
{

/** Cache line size assumed throughout the simulator. */
constexpr uint64_t kLineBytes = 64;

/** Virtual-address region stride separating kernels. */
constexpr uint64_t kRegionStride = 1ULL << 40;

/** Cap on pointer-chase permutation entries (memory safety). */
constexpr uint64_t kMaxChaseLines = 1ULL << 22;

} // namespace

std::string_view
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::Stream:
        return "stream";
      case KernelKind::Strided:
        return "strided";
      case KernelKind::PointerChase:
        return "chase";
      case KernelKind::Loop:
        return "loop";
      case KernelKind::HotCold:
        return "hotcold";
      case KernelKind::ScanThrash:
        return "scanthrash";
    }
    return "?";
}

namespace
{

/** x % n for a fixed n, as a mask when n is a power of two. */
struct Modulus
{
    uint64_t n = 1;

    uint64_t
    of(uint64_t x) const
    {
        return (n & (n - 1)) == 0 ? x & (n - 1) : x % n;
    }
};

/** Fixed odds of the generator's hard-coded coin flips. */
constexpr util::Rng::Odds kAluDependent{0.4};
constexpr util::Rng::Odds kNoiseTaken{0.5};
constexpr util::Rng::Odds kLoopTaken{0.97};

} // namespace

/** Per-kernel mutable generation state. */
struct SyntheticGenerator::KernelState
{
    KernelSpec spec;
    /** chance(spec.write_frac). */
    util::Rng::Odds write_odds;
    /** Base virtual address of the kernel's region. */
    uint64_t base = 0;
    /** Lines in the working set. */
    uint64_t lines = 0;
    /** Current position (byte offset or line index). */
    uint64_t pos = 0;
    /** Stream/Strided/Loop: pos wraps at ws, advancing by step
     *  (the stride reduced mod ws). */
    uint64_t ws = kLineBytes;
    uint64_t step = 0;
    /** PointerChase: permutation of line indices. */
    std::vector<uint32_t> perm;
    /** HotCold: Zipf sampler over lines. */
    std::unique_ptr<util::ZipfSampler> zipf;
    /** HotCold: reduces a hashed rank to a line index. */
    Modulus line_mod;
    /** ScanThrash: accesses remaining in the current phase. */
    uint64_t phase_left = 0;
    bool in_hot_phase = true;
    /** ScanThrash: the hot quarter and the cold rest, in lines. */
    uint64_t hot_lines = 1;
    uint64_t cold_lines = 1;
    /** Scan cursor for the cold region (ScanThrash), < cold_lines. */
    uint64_t scan_pos = 0;
    /** First code address for this kernel's memory PCs. */
    uint64_t pc_base = 0;
    /** Picks one of the kernel's PCs from the sequence number. */
    Modulus pc_mod;
};

SyntheticGenerator::SyntheticGenerator(WorkloadProfile profile,
                                       uint64_t seed)
    : profile_(std::move(profile)), seed_(seed), rng_(seed)
{
    util::ensure(!profile_.kernels.empty(),
                 "SyntheticGenerator: no kernels");
    double total_weight = 0.0;
    kernels_.resize(profile_.kernels.size());
    for (size_t i = 0; i < profile_.kernels.size(); ++i) {
        KernelState &ks = kernels_[i];
        ks.spec = profile_.kernels[i];
        ks.write_odds = util::Rng::Odds(ks.spec.write_frac);
        ks.base = (i + 1) * kRegionStride;
        ks.lines =
            std::max<uint64_t>(1, ks.spec.working_set / kLineBytes);
        ks.ws = std::max<uint64_t>(kLineBytes, ks.spec.working_set);
        ks.step = ks.spec.stride % ks.ws;
        ks.pc_base = 0x400000 + i * 0x1000;
        ks.pc_mod.n = std::max(1u, ks.spec.num_pcs);
        switch (ks.spec.kind) {
          case KernelKind::Loop:
            if (ks.spec.shuffled) {
                ks.perm.resize(ks.lines);
                std::iota(ks.perm.begin(), ks.perm.end(), 0u);
                util::Rng perm_rng(seed ^ (0x5151beefU + i));
                perm_rng.shuffle(ks.perm);
            }
            break;
          case KernelKind::ScanThrash: {
            // The hot quarter of the region is visited in a fixed
            // permutation so the reuse is prefetch-proof.
            ks.hot_lines = std::max<uint64_t>(1, ks.lines / 4);
            ks.cold_lines =
                std::max<uint64_t>(1, ks.lines - ks.hot_lines);
            ks.perm.resize(ks.hot_lines);
            std::iota(ks.perm.begin(), ks.perm.end(), 0u);
            util::Rng perm_rng(seed ^ (0x77aa0101U + i));
            perm_rng.shuffle(ks.perm);
            ks.phase_left = ks.spec.phase_hot;
            ks.in_hot_phase = true;
            break;
          }
          case KernelKind::PointerChase: {
            const uint64_t n = std::min(ks.lines, kMaxChaseLines);
            ks.lines = n;
            ks.perm.resize(n);
            std::iota(ks.perm.begin(), ks.perm.end(), 0u);
            // A single cycle through all lines, so the chase
            // touches the whole working set.
            util::Rng perm_rng(seed ^ (0xabcd1234u + i));
            perm_rng.cyclicShuffle(ks.perm);
            break;
          }
          case KernelKind::HotCold:
            ks.zipf = std::make_unique<util::ZipfSampler>(
                ks.lines, ks.spec.zipf_alpha);
            ks.line_mod.n = ks.lines;
            break;
          default:
            break;
        }
        total_weight += ks.spec.weight;
    }
    // The last kernel takes every draw the others leave, so only
    // the first n - 1 CDF points are kept.
    double acc = 0.0;
    for (size_t k = 0; k + 1 < kernels_.size(); ++k) {
        acc += kernels_[k].spec.weight / total_weight;
        kernel_pick_.push_back(util::Rng::firstDrawAbove(acc));
    }
    mem_below_ = util::Rng::drawsBelow(profile_.mem_ratio);
    branch_below_ = util::Rng::drawsBelow(profile_.mem_ratio +
                                          profile_.branch_ratio);
    local_odds_ = util::Rng::Odds(profile_.local_frac);
    local_write_odds_ = util::Rng::Odds(profile_.local_write_frac);
    noise_odds_ = util::Rng::Odds(profile_.branch_noise);
    local_lines_ =
        std::max<uint64_t>(1, profile_.local_ws / kLineBytes);
    footprint_ =
        std::max<uint64_t>(kLineBytes, profile_.code_footprint);
    loop_branch_pc_ = 0x500000;
    noise_branch_pc_ = 0x500100;
}

SyntheticGenerator::~SyntheticGenerator() = default;

void
SyntheticGenerator::reset()
{
    // Re-seed and rebuild mutable state; permutations, samplers
    // and thresholds are deterministic functions of (profile,
    // seed) and stay put.
    rng_ = util::Rng(seed_);
    seq_ = 0;
    fetch_off_ = 0;
    next_dest_reg_ = 2;
    for (auto &ks : kernels_) {
        ks.pos = 0;
        ks.scan_pos = 0;
        ks.in_hot_phase = true;
        ks.phase_left = ks.spec.kind == KernelKind::ScanThrash
                            ? ks.spec.phase_hot
                            : 0;
    }
}

const std::string &
SyntheticGenerator::name() const
{
    return profile_.name;
}

uint64_t
SyntheticGenerator::nextMemAddress(KernelState &ks, bool &is_store,
                                   bool &dependent)
{
    const KernelSpec &spec = ks.spec;
    is_store = rng_.chance(ks.write_odds);
    dependent = false;

    uint64_t line = 0;
    switch (spec.kind) {
      case KernelKind::Stream:
      case KernelKind::Strided:
      case KernelKind::Loop: {
        line = ks.pos / kLineBytes;
        if (!ks.perm.empty()) {
            // pos < ws <= 64 * perm.size() + 63, so line is at most
            // perm.size(): one subtraction reduces it.
            const uint64_t n = ks.perm.size();
            line = ks.perm[line < n ? line : line - n];
        }
        ks.pos += ks.step;
        if (ks.pos >= ks.ws)
            ks.pos -= ks.ws;
        break;
      }
      case KernelKind::PointerChase:
        // Nodes are spaced two lines apart: linked-structure
        // neighbours are not address neighbours, so a next-line
        // prefetch lands on dead padding (low prefetch accuracy,
        // as for real graph codes). pos is always a permutation
        // entry, so it indexes perm directly. The next step of this
        // kernel, many instructions later, reads perm[pos]: fetch
        // it now rather than wait on it then.
        ks.pos = ks.perm[ks.pos];
        __builtin_prefetch(&ks.perm[ks.pos]);
        line = 2 * ks.pos;
        dependent = true;
        break;
      case KernelKind::HotCold:
        // Scatter ranks across the region with a bijective
        // multiplicative hash: real hot data is not
        // address-adjacent, and clustering it would hand delta
        // prefetchers artificial patterns. The odd multiplier is
        // bijective mod any power-of-two line count.
        line = ks.line_mod.of(ks.zipf->sample(rng_) * 0x9E3779B1ULL);
        break;
      case KernelKind::ScanThrash: {
        if (ks.phase_left == 0) {
            ks.in_hot_phase = !ks.in_hot_phase;
            ks.phase_left = ks.in_hot_phase ? spec.phase_hot
                                            : spec.phase_scan;
        }
        --ks.phase_left;
        if (ks.in_hot_phase) {
            // Tight reuse over the first quarter of the region,
            // visited in a fixed permutation (prefetch-proof).
            line = ks.perm[ks.pos];
            if (++ks.pos == ks.hot_lines)
                ks.pos = 0;
        } else {
            // Long scan over the rest; touches each line once.
            line = ks.hot_lines + ks.scan_pos;
            if (++ks.scan_pos == ks.cold_lines)
                ks.scan_pos = 0;
        }
        break;
      }
    }
    return ks.base + line * kLineBytes;
}

void
SyntheticGenerator::emitBranch(Instruction &out)
{
    out.kind = InstrKind::Branch;
    if (rng_.chance(noise_odds_)) {
        // Data-dependent branch: ~50% taken, unpredictable.
        out.pc = noise_branch_pc_ +
                 16 * rng_.nextBounded(8);
        out.branch_taken = rng_.chance(kNoiseTaken);
    } else {
        // Loop-style branch: strongly biased taken.
        out.pc = loop_branch_pc_ + 16 * rng_.nextBounded(4);
        out.branch_taken = rng_.chance(kLoopTaken);
    }
    out.branch_target = out.pc + (out.branch_taken ? 64 : 4);
}

bool
SyntheticGenerator::next(Instruction &out)
{
    out = Instruction{};
    ++seq_;

    // Instruction fetch address walks the code footprint so the
    // L1I sees realistic pressure.
    fetch_off_ += 4;
    if (fetch_off_ >= footprint_)
        fetch_off_ -= footprint_;
    const uint64_t fetch_pc = 0x600000 + fetch_off_;
    // The destination registers cycle through 2 .. kNumRegs - 1.
    const auto advance_dest_reg = [this] {
        next_dest_reg_ = next_dest_reg_ + 1 == kNumRegs
                             ? 2
                             : static_cast<uint8_t>(next_dest_reg_ + 1);
    };

    const uint64_t r = rng_.nextBits53();
    if (r < mem_below_) {
        if (rng_.chance(local_odds_)) {
            // Local (stack/scratch) access: stays within a small
            // region that lives in the L1.
            out.mem_addr = 0x7f0000000000ULL +
                           rng_.nextBounded(local_lines_) * kLineBytes;
            const bool is_store = rng_.chance(local_write_odds_);
            out.kind = is_store ? InstrKind::Store
                                : InstrKind::Load;
            out.pc = 0x700000 + 4 * (seq_ & 7);
            if (!is_store)
                out.dest_reg = next_dest_reg_;
        } else {
            // Pick a kernel by mixture weight.
            const uint64_t u = rng_.nextBits53();
            size_t k = 0;
            while (k < kernel_pick_.size() && u >= kernel_pick_[k])
                ++k;
            KernelState &ks = kernels_[k];
            bool is_store = false;
            bool dependent = false;
            out.mem_addr = nextMemAddress(ks, is_store, dependent);
            out.kind = is_store ? InstrKind::Store
                                : InstrKind::Load;
            out.pc = ks.pc_base + 4 * ks.pc_mod.of(seq_);
            if (dependent) {
                // Pointer chase: address depends on the previous
                // chase load. Register 1 is the chase pointer.
                out.src_regs[0] = 1;
                if (!is_store)
                    out.dest_reg = 1;
            } else if (!is_store) {
                out.dest_reg = next_dest_reg_;
            }
        }
        if (out.dest_reg == next_dest_reg_)
            advance_dest_reg();
    } else if (r < branch_below_) {
        emitBranch(out);
    } else {
        out.kind = InstrKind::Alu;
        out.pc = fetch_pc;
        out.dest_reg = next_dest_reg_;
        // Shallow dependency chains: most ALU ops are independent;
        // some consume a recent value.
        if (rng_.chance(kAluDependent)) {
            out.src_regs[0] = static_cast<uint8_t>(
                2 + rng_.nextBounded(kNumRegs - 2));
        }
        advance_dest_reg();
    }
    if (out.pc == 0)
        out.pc = fetch_pc;
    return true;
}

VectorInstructionSource::VectorInstructionSource(
    std::string name, std::vector<Instruction> instructions)
    : name_(std::move(name)), instructions_(std::move(instructions))
{
}

bool
VectorInstructionSource::next(Instruction &out)
{
    if (pos_ >= instructions_.size())
        return false;
    out = instructions_[pos_++];
    return true;
}

void
VectorInstructionSource::reset()
{
    pos_ = 0;
}

const std::string &
VectorInstructionSource::name() const
{
    return name_;
}

} // namespace rlr::trace
