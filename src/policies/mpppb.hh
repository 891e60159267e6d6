/**
 * @file
 * Multiperspective Placement, Promotion, and Bypass (Jiménez &
 * Teran, MICRO 2017) — the MPPPB row of the paper's Table I
 * (28KB @ 2MB). A perceptron predictor combines several cheap
 * "perspectives" on an access (PC, address bits, access type,
 * line age) to predict whether the incoming/resident line will be
 * reused; predicted-dead lines are preferred victims and
 * confidently-dead fills can bypass.
 */

#ifndef RLR_POLICIES_MPPPB_HH
#define RLR_POLICIES_MPPPB_HH

#include <array>
#include <vector>

#include "cache/replacement.hh"

namespace rlr::policies
{

/** MPPPB configuration. */
struct MpppbConfig
{
    /** Weight-table entries per feature (power of two). */
    unsigned table_entries = 1024;
    /** Weight saturation bound. */
    int weight_max = 31;
    /** Prediction threshold: sum >= threshold -> reused. */
    int threshold = 0;
    /** Bypass threshold: sum below -bypass_margin -> bypass. */
    int bypass_margin = 48;
    /** Training margin. */
    int margin = 40;
    /** Allow bypass of confidently dead fills. */
    bool allow_bypass = true;
};

/** MPPPB policy (simplified multiperspective perceptron). */
class MpppbPolicy : public cache::ReplacementPolicy
{
  public:
    /** Number of perceptron features (perspectives). */
    static constexpr size_t kNumFeatures = 4;

    explicit MpppbPolicy(MpppbConfig config = {});

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    void onEviction(uint32_t set, uint32_t way,
                    const cache::BlockView &block) override;
    std::string name() const override { return "MPPPB"; }
    bool usesPc() const override { return true; }
    cache::StorageOverhead overhead() const override;

    /** Perceptron output for an access (tests). */
    int predict(uint64_t pc, uint64_t address,
                trace::AccessType type) const;

  private:
    struct LineState
    {
        /** Feature indices captured at the last access (training
         *  happens on reuse or eviction). */
        std::array<uint32_t, kNumFeatures> feature_idx{};
        bool trained_sample = false;
        /** Predicted-dead flag drives victim selection. */
        bool predicted_dead = false;
        uint64_t last_use = 0;
    };

    std::array<uint32_t, kNumFeatures>
    featureIndices(uint64_t pc, uint64_t address,
                   trace::AccessType type) const;
    int sum(const std::array<uint32_t, kNumFeatures> &idx) const;
    void train(const std::array<uint32_t, kNumFeatures> &idx,
               bool reused);
    LineState &line(uint32_t set, uint32_t way);

    MpppbConfig config_;
    uint32_t ways_ = 0;
    uint32_t num_sets_ = 0;
    uint64_t clock_ = 0;
    std::vector<LineState> lines_;
    /** kNumFeatures weight tables, flattened. */
    std::vector<int16_t> weights_;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_MPPPB_HH
