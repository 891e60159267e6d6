/**
 * @file
 * Glider replacement (Shi et al., MICRO 2019), the strongest
 * PC-based baseline in the paper's Table I (61.6KB @ 2MB).
 *
 * Glider distills an offline attention LSTM into hardware: an
 * Integer Support Vector Machine over a PC History Register (the
 * unordered set of the last K load PCs). Each PC in the history
 * contributes one trained weight; the sum classifies the access
 * as cache-friendly or cache-averse. Training labels come from
 * OPTgen over sampled sets, exactly as in Hawkeye.
 */

#ifndef RLR_POLICIES_GLIDER_HH
#define RLR_POLICIES_GLIDER_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/replacement.hh"

namespace rlr::policies
{

/** Glider configuration. */
struct GliderConfig
{
    /** Per-line RRIP bits (values 0..7). */
    unsigned rrpv_bits = 3;
    /** PCs kept in the history register. */
    unsigned history_length = 5;
    /** ISVM table entries (indexed by hashed PC). */
    unsigned isvm_entries = 2048;
    /** Weights per ISVM entry (selected by history-PC hash). */
    unsigned weights_per_entry = 16;
    /** Weight saturation bound. */
    int weight_max = 31;
    /** Decision threshold: sum >= threshold -> friendly. */
    int threshold = 0;
    /** Training margin: stop updating once |sum| exceeds it. */
    int margin = 60;
    /** Sampled sets feeding OPTgen. */
    uint32_t sampled_sets = 64;
    /** OPTgen window in set accesses (x associativity). */
    uint32_t history_factor = 8;
};

/** Glider policy. */
class GliderPolicy : public cache::ReplacementPolicy
{
  public:
    explicit GliderPolicy(GliderConfig config = {});

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    std::string name() const override { return "Glider"; }
    bool usesPc() const override { return true; }
    cache::StorageOverhead overhead() const override;

    /** ISVM decision value for a PC given the current history. */
    int decisionValue(uint64_t pc) const;

    /** @return true when the ISVM classifies pc as friendly. */
    bool predictsFriendly(uint64_t pc) const;

  private:
    struct LineState
    {
        uint8_t rrpv = 7;
        /** Snapshot of (pc index, weight indices) for detraining. */
        uint32_t pc_index = 0;
        std::vector<uint16_t> weight_slots;
        bool friendly = false;
    };

    struct SamplerSet
    {
        std::vector<uint8_t> occupancy;
        /** line -> (time, pc index, weight slots). */
        std::unordered_map<
            uint64_t,
            std::tuple<uint64_t, uint32_t, std::vector<uint16_t>>>
            entries;
        uint64_t time = 0;
    };

    LineState &line(uint32_t set, uint32_t way);
    uint32_t pcIndex(uint64_t pc) const;
    std::vector<uint16_t> weightSlots() const;
    int sumWeights(uint32_t pc_index,
                   const std::vector<uint16_t> &slots) const;
    void train(uint32_t pc_index,
               const std::vector<uint16_t> &slots, bool friendly);
    SamplerSet *sampler(uint32_t set);
    void updateHistory(uint64_t pc);

    GliderConfig config_;
    uint8_t max_rrpv_ = 7;
    uint32_t ways_ = 0;
    uint32_t num_sets_ = 0;
    uint32_t sample_period_ = 1;
    uint32_t history_len_ = 128;

    std::vector<LineState> lines_;
    std::vector<SamplerSet> samplers_;
    /** ISVM weight tables: entries x weights_per_entry. */
    std::vector<int16_t> weights_;
    /** PC history register (most recent last). */
    std::deque<uint64_t> history_;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_GLIDER_HH
