/**
 * @file
 * Hawkeye replacement (Jain & Lin, ISCA 2016). Reconstructs
 * Belady's decisions for a sample of past accesses with OPTgen and
 * trains a PC-indexed predictor to classify lines as cache-friendly
 * or cache-averse. Friendly lines are kept near MRU; averse lines
 * are immediate eviction candidates; evicting a friendly line
 * detrains the PC that loaded it.
 */

#ifndef RLR_POLICIES_HAWKEYE_HH
#define RLR_POLICIES_HAWKEYE_HH

#include <unordered_map>
#include <vector>

#include "cache/replacement.hh"
#include "util/sat_counter.hh"

namespace rlr::policies
{

/** Hawkeye configuration. */
struct HawkeyeConfig
{
    /** Per-line age/RRIP counter bits (values 0..7). */
    unsigned rrpv_bits = 3;
    /** Number of sampled sets feeding OPTgen. */
    uint32_t sampled_sets = 64;
    /** OPTgen history window in set-accesses (x associativity). */
    uint32_t history_factor = 8;
    /** Predictor index bits (entries = 2^bits). */
    unsigned predictor_bits = 13;
    /** Predictor counter bits; friendly when MSB set. */
    unsigned counter_bits = 3;
};

/** Hawkeye policy. */
class HawkeyePolicy : public cache::ReplacementPolicy
{
  public:
    explicit HawkeyePolicy(HawkeyeConfig config = {});

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    std::string name() const override { return "Hawkeye"; }
    bool usesPc() const override { return true; }
    cache::StorageOverhead overhead() const override;

    /** @return true when the predictor classifies pc as friendly. */
    bool predictsFriendly(uint64_t pc) const;

  private:
    struct LineState
    {
        uint8_t rrpv = 7;
        uint32_t pc_sig = 0;
        bool friendly = false;
    };

    /** Per-sampled-set OPTgen state. */
    struct SamplerSet
    {
        /** Occupancy per time quantum (ring buffer). */
        std::vector<uint8_t> occupancy;
        /** line address -> (last access time, last PC signature). */
        std::unordered_map<uint64_t, std::pair<uint64_t, uint32_t>>
            entries;
        uint64_t time = 0;
    };

    LineState &line(uint32_t set, uint32_t way);
    uint32_t pcSignature(uint64_t pc) const;
    /** @return sampler for the set, or nullptr if not sampled. */
    SamplerSet *sampler(uint32_t set);
    void trainOnSample(SamplerSet &samp, uint64_t line_addr,
                       uint32_t pc_sig);

    HawkeyeConfig config_;
    uint8_t max_rrpv_ = 7;
    uint32_t ways_ = 0;
    uint32_t num_sets_ = 0;
    uint32_t sample_period_ = 1;
    uint32_t history_len_ = 128;
    std::vector<LineState> lines_;
    std::vector<SamplerSet> samplers_;
    std::vector<util::SatCounter> predictor_;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_HAWKEYE_HH
