/**
 * @file
 * Gshare branch predictor. Mispredictions charge a pipeline
 * refill penalty in the core model, so workloads with
 * data-dependent branches (gobmk, sjeng, mcf) lose front-end
 * throughput just as they do on real hardware.
 */

#ifndef RLR_CPU_BRANCH_PREDICTOR_HH
#define RLR_CPU_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rlr::cpu
{

/** Gshare configuration. */
struct BranchPredictorConfig
{
    /** Pattern table index bits (entries = 2^bits). */
    unsigned index_bits = 14;
    /** Global-history length folded into the index. */
    unsigned history_bits = 12;
};

/** Global-history XOR pattern-table predictor. */
class GsharePredictor
{
  public:
    explicit GsharePredictor(BranchPredictorConfig config = {});

    /** @return predicted direction for the branch at @p pc. */
    bool predict(uint64_t pc) const;

    /** Train with the actual outcome and update history. */
    void update(uint64_t pc, bool taken);

    uint64_t lookups() const { return lookups_; }
    uint64_t mispredicts() const { return mispredicts_; }

    /**
     * Predict + update in one step.
     * @return true when the prediction was correct.
     */
    bool predictAndUpdate(uint64_t pc, bool taken);

  private:
    /** A 2-bit counter's maximum; it predicts taken from 2 up. */
    static constexpr uint8_t kCounterMax = 3;

    size_t index(uint64_t pc) const;

    BranchPredictorConfig config_;
    /** 2-bit saturating counters, one byte each. */
    std::vector<uint8_t> table_;
    uint64_t history_ = 0;
    uint64_t lookups_ = 0;
    uint64_t mispredicts_ = 0;
};

} // namespace rlr::cpu

#endif // RLR_CPU_BRANCH_PREDICTOR_HH
