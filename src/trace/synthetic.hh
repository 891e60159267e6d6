/**
 * @file
 * Parameterized synthetic workload generation.
 *
 * The paper evaluates on SPEC CPU2006 / CloudSuite SimPoint traces
 * from CRC2, which are not redistributable. We substitute each
 * benchmark with a mixture of access-pattern kernels whose knobs
 * (working-set size, stride, pointer-chase dependence, hot/cold
 * skew, scan/thrash phases, write fraction, branch predictability)
 * are tuned to the benchmark's published LLC behaviour. Replacement
 * policy rankings are driven by exactly these stream properties, so
 * relative results (who wins, where crossovers fall) are preserved
 * even though absolute IPC differs from the authors' testbed.
 */

#ifndef RLR_TRACE_SYNTHETIC_HH
#define RLR_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "util/rng.hh"

namespace rlr::trace
{

/** Families of memory-access kernels. */
enum class KernelKind : uint8_t
{
    /** Sequential walk over a large region (streaming). */
    Stream,
    /** Fixed-stride walk (stencil / column-major codes). */
    Strided,
    /** Dependent random walk over a permutation (linked data). */
    PointerChase,
    /** Repeated sweep over a modest working set (loop reuse). */
    Loop,
    /** Zipf-skewed accesses over a region (hot/cold). */
    HotCold,
    /**
     * Alternating phases: tight loop over a hot region, then a long
     * scan over a cold region (the access mix where recency-based
     * policies thrash).
     */
    ScanThrash,
};

/** @return short kernel name for diagnostics. */
std::string_view kernelKindName(KernelKind kind);

/** One kernel within a workload mixture. */
struct KernelSpec
{
    KernelKind kind = KernelKind::Loop;
    /** Working set in bytes (rounded to cache lines). */
    uint64_t working_set = 1 << 20;
    /** Access stride in bytes (Stream/Strided/Loop). */
    uint64_t stride = 64;
    /** Relative probability of drawing from this kernel. */
    double weight = 1.0;
    /** Fraction of this kernel's accesses that are stores. */
    double write_frac = 0.0;
    /** Zipf skew (HotCold only). */
    double zipf_alpha = 0.8;
    /** Hot-loop length and scan length in accesses (ScanThrash). */
    uint64_t phase_hot = 4096;
    uint64_t phase_scan = 4096;
    /** Number of distinct load/store PCs attributed to the kernel. */
    unsigned num_pcs = 4;
    /**
     * Iterate the working set in a fixed random permutation
     * instead of sequentially (Loop kernels; always on for the
     * ScanThrash hot phase). Reuse behaviour is identical but
     * stride/next-line prefetchers cannot cover the traffic —
     * the signature of irregular-reuse benchmarks.
     */
    bool shuffled = false;
};

/** Full description of one synthetic benchmark. */
struct WorkloadProfile
{
    std::string name;
    /** "spec2006" or "cloudsuite". */
    std::string suite;
    /** Fraction of instructions that access memory. */
    double mem_ratio = 0.35;
    /** Fraction of instructions that are branches. */
    double branch_ratio = 0.15;
    /** Fraction of branches that are data-dependent (unpredictable). */
    double branch_noise = 0.02;
    /** Instruction footprint in bytes (L1I pressure). */
    uint64_t code_footprint = 16 * 1024;
    /**
     * Fraction of memory ops that touch the local (stack/scratch)
     * region rather than a kernel. Real programs satisfy most
     * accesses from L1; only the remainder stresses the LLC.
     */
    double local_frac = 0.78;
    /** Size of the local region (fits in L1). */
    uint64_t local_ws = 16 * 1024;
    /** Store fraction of local accesses. */
    double local_write_frac = 0.3;
    std::vector<KernelSpec> kernels;
};

/**
 * Instruction stream generator for one WorkloadProfile. Streams are
 * infinite; the driver decides how many instructions to consume.
 * Deterministic for a given (profile, seed).
 */
class SyntheticGenerator : public InstructionSource
{
  public:
    SyntheticGenerator(WorkloadProfile profile, uint64_t seed);
    ~SyntheticGenerator() override;

    bool next(Instruction &out) override;
    void reset() override;
    const std::string &name() const override;

    const WorkloadProfile &profile() const { return profile_; }

  private:
    struct KernelState;

    uint64_t nextMemAddress(KernelState &ks, bool &is_store,
                            bool &dependent);
    void emitBranch(Instruction &out);

    WorkloadProfile profile_;
    uint64_t seed_;
    util::Rng rng_;
    std::vector<KernelState> kernels_;

    // The profile's per-instruction decisions, converted once into
    // integer thresholds on util::Rng draws. Each makes the same
    // decision from the same draw as the double compare it
    // stands for.

    /** r < mem_ratio, and r < mem_ratio + branch_ratio. */
    uint64_t mem_below_ = 0;
    uint64_t branch_below_ = 0;
    /** u > (kernel weight CDF)[k], for every kernel but the last. */
    std::vector<uint64_t> kernel_pick_;
    util::Rng::Odds local_odds_;
    util::Rng::Odds local_write_odds_;
    util::Rng::Odds noise_odds_;
    /** Lines in the local region. */
    uint64_t local_lines_ = 1;
    /** Code footprint in bytes, at least one line. */
    uint64_t footprint_ = 64;
    /** (seq_ * 4) % footprint_, advanced with seq_. */
    uint64_t fetch_off_ = 0;

    uint64_t seq_ = 0;
    uint8_t next_dest_reg_ = 2;
    uint64_t loop_branch_pc_ = 0;
    uint64_t noise_branch_pc_ = 0;
};

/**
 * Replays a fixed vector of instructions (unit tests, hand-crafted
 * microbenchmarks).
 */
class VectorInstructionSource : public InstructionSource
{
  public:
    VectorInstructionSource(std::string name,
                            std::vector<Instruction> instructions);

    bool next(Instruction &out) override;
    void reset() override;
    const std::string &name() const override;

  private:
    std::string name_;
    std::vector<Instruction> instructions_;
    size_t pos_ = 0;
};

} // namespace rlr::trace

#endif // RLR_TRACE_SYNTHETIC_HH
