/**
 * @file
 * LLC-only offline simulator — the C++ equivalent of the paper's
 * python cache simulator (Section III-A, Figure 2). It replays a
 * captured LLC access trace against a tag-only set-associative
 * cache that tracks every Table-II feature, and drives either a
 * conventional replacement policy or the RL agent (with
 * Belady-based rewards for training).
 *
 * It also gathers the feature statistics behind Figures 4-7:
 * preuse-vs-reuse deltas, victim age per access type, victim hit
 * counts, and victim recency.
 */

#ifndef RLR_ML_OFFLINE_HH
#define RLR_ML_OFFLINE_HH

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/replacement.hh"
#include "ml/agent.hh"
#include "ml/features.hh"
#include "policies/belady.hh"
#include "trace/trace_io.hh"

namespace rlr::ml
{

/** Offline LLC shape (defaults = the paper's 2MB/16-way). */
struct OfflineConfig
{
    uint64_t size_bytes = 2 * 1024 * 1024;
    uint32_t ways = 16;
};

/** Outcome counters of one offline run. */
struct OfflineStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t demand_accesses = 0;
    uint64_t demand_hits = 0;
    uint64_t compulsory_misses = 0;
    uint64_t evictions = 0;
    uint64_t bypasses = 0;
    /** Cumulative training reward (agent runs). */
    double total_reward = 0.0;

    double hitRate() const;
    double demandHitRate() const;
};

/** Feature statistics for Figures 4-7. */
struct FeatureStats
{
    /** Fig. 4: |preuse - reuse| buckets over reused lines. */
    uint64_t preuse_reuse_lt10 = 0;
    uint64_t preuse_reuse_10to50 = 0;
    uint64_t preuse_reuse_gt50 = 0;

    /** Fig. 5: victim age-since-last-access sums per last type. */
    std::array<uint64_t, trace::kNumAccessTypes> victim_age_sum{};
    std::array<uint64_t, trace::kNumAccessTypes> victim_count{};

    /** Fig. 6: victims with 0 / 1 / >1 hits. */
    uint64_t victims_zero_hits = 0;
    uint64_t victims_one_hit = 0;
    uint64_t victims_multi_hits = 0;

    /** Fig. 7: victim recency histogram (0 = LRU). */
    std::vector<uint64_t> victim_recency;

    double avgVictimAge(trace::AccessType type) const;
};

/** The offline LLC simulator. */
class OfflineSimulator
{
  public:
    /**
     * @param config cache shape
     * @param trace captured LLC access stream (borrowed; must
     *        outlive the simulator)
     */
    OfflineSimulator(OfflineConfig config,
                     const trace::LlcTrace *trace);

    /**
     * Replay the trace under a conventional policy.
     * @param warm_pass replay the trace once (stats discarded)
     *        before the measured pass, so cold compulsory misses
     *        do not dominate short traces
     */
    OfflineStats runPolicy(cache::ReplacementPolicy &policy,
                           bool warm_pass = false);

    /**
     * Replay the trace with the RL agent choosing victims.
     * @param train store transitions and learn (Belady rewards);
     *        false = greedy evaluation
     */
    OfflineStats runAgent(DqnAgent &agent, bool train,
                          bool warm_pass = false);

    /** Statistics gathered by the most recent run. */
    const FeatureStats &featureStats() const { return fstats_; }

    /** Feature extractor (masking for hill climbing). */
    FeatureExtractor &extractor() { return extractor_; }

    /** Shared future-knowledge index over the trace. */
    std::shared_ptr<const policies::BeladyOracle> oracle() const;

    uint32_t numSets() const { return num_sets_; }
    uint32_t ways() const { return ways_; }

  private:
    struct AddressHistory
    {
        uint32_t last_set_accesses = 0;
        uint32_t prev_interval = 0;
        bool has_prev = false;
        bool seen = false;
    };

    void resetState();
    /** One replay of the trace; appends to current state. */
    OfflineStats replayPolicy(cache::ReplacementPolicy &policy);
    OfflineStats replayAgent(DqnAgent &agent, bool train);
    uint32_t setIndex(uint64_t address) const;
    /** Recompute recency ranks for a set (0 = LRU). */
    void refreshRecency(uint32_t set);
    /** Apply an access to the line's feature counters. */
    void touchLine(uint32_t set, uint32_t way,
                   const trace::LlcAccess &access, bool hit);
    /** Belady-based reward for evicting @p victim_way (paper's
     *  reward shaping). */
    float reward(uint32_t set, uint32_t victim_way,
                 uint64_t insert_addr, uint64_t seq) const;
    void recordVictim(uint32_t set, uint32_t way);

    OfflineConfig config_;
    const trace::LlcTrace *trace_;
    uint32_t ways_;
    uint32_t num_sets_;
    FeatureExtractor extractor_;
    /** Reused findVictim() argument: a full set's line addresses. */
    std::vector<uint64_t> victim_addrs_;
    std::shared_ptr<policies::BeladyOracle> oracle_;

    std::vector<LineFeatures> lines_;
    std::vector<SetFeatures> sets_;
    std::vector<uint64_t> last_use_;
    uint64_t clock_ = 0;
    std::unordered_map<uint64_t, AddressHistory> history_;
    FeatureStats fstats_;
};

} // namespace rlr::ml

#endif // RLR_ML_OFFLINE_HH
