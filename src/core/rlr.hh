/**
 * @file
 * Reinforcement Learned Replacement (RLR) — the paper's primary
 * contribution (Section IV).
 *
 * RLR is a hand-crafted policy distilled from an RL agent's
 * learned behaviour. Each line carries an Age Counter, a Hit
 * Register, and a Type Register. A predicted reuse distance RD is
 * maintained as 2x the average preuse distance accumulated over 32
 * demand hits. On a miss the victim is the line with the lowest
 * priority
 *
 *     P_line = 8 * P_age + P_type + P_hit  (+ P_core, multicore)
 *
 * where P_age = 1 iff the line's age has not reached RD, P_type =
 * 1 iff the last access was not a prefetch, and P_hit = 1 iff the
 * line has been hit. Ties break toward the most recently used
 * line. RLR never reads the program counter.
 *
 * Two hardware variants are modeled exactly as in Section IV-C:
 * the unoptimized policy (5-bit age in set accesses, 2-bit hit
 * counter; 10 bits/line, 40KB @ 2MB) and the optimized policy
 * (2-bit age advanced every 8 set misses via a 3-bit per-set
 * counter, 1-bit hit register, recency approximated by age == 0;
 * 4 bits/line + 3 bits/set, 16.75KB @ 2MB).
 */

#ifndef RLR_CORE_RLR_HH
#define RLR_CORE_RLR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/replacement.hh"

namespace rlr::core
{

/** Tunable parameters of RLR (defaults = the paper's). */
struct RlrConfig
{
    /**
     * Apply the Section IV-C overhead optimizations (2-bit age
     * counting groups of 8 set misses, 1-bit hit register, recency
     * approximated by age). False = RLR(unopt).
     */
    bool optimized = true;

    /** Age counter bits (2 optimized, 5 unoptimized). */
    unsigned age_bits = 2;
    /** Set misses per age tick (optimized variant only). */
    unsigned age_tick_misses = 8;
    /** Hit state bits (1 = register, 2 = counter in unopt). */
    unsigned hit_bits = 1;

    /** Demand hits accumulated per RD update (power of two). */
    unsigned rd_update_hits = 32;
    /**
     * RD = rd_multiplier x average preuse distance. The paper
     * specifies 2x in set-access units (the unoptimized design);
     * the optimized variant measures preuse in set-miss units,
     * where one miss ~ two accesses on our traces, so the
     * equivalent default is 4 (still a single shift in hardware).
     */
    unsigned rd_multiplier = 4;

    /** Ablations (Section V-B): disable P_hit / P_type. */
    bool use_hit_priority = true;
    bool use_type_priority = true;
    /** Weight of P_age in the priority sum. */
    unsigned age_weight = 8;

    /** Bypass fills when every line is still age-protected. */
    bool allow_bypass = false;

    /** Multicore extension (Section IV-D): add P_core. */
    bool multicore = false;
    unsigned num_cores = 4;
    /** LLC accesses between core-priority updates. */
    uint64_t core_update_interval = 2000;

    /** @return the paper's unoptimized configuration. */
    static RlrConfig unoptimized();
    /** @return the multicore configuration for @p cores cores. */
    static RlrConfig forMulticore(unsigned cores);
};

/** The RLR replacement policy. */
class RlrPolicy : public cache::ReplacementPolicy
{
  public:
    explicit RlrPolicy(RlrConfig config = {});

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    void verifyInvariants(
        uint32_t set,
        std::span<const cache::BlockView> blocks) const override;
    std::string name() const override;
    cache::StorageOverhead overhead() const override;
    void describeStats(stats::Registry &reg,
                       const std::string &prefix) override;

    /** Current predicted reuse distance (age-counter units). */
    uint64_t reuseDistance() const { return rd_; }

    /** Per-line priority as computed for victim selection (tests). */
    uint64_t linePriority(uint32_t set, uint32_t way) const;

    /** Observational priority = the P_line sum (event log). */
    uint64_t
    victimPriority(uint32_t set, uint32_t way) const override
    {
        return linePriority(set, way);
    }

    /** RLR only bypasses when every line is age-protected. */
    cache::BypassReason
    bypassReason() const override
    {
        return cache::BypassReason::AgeProtected;
    }

    /** Core priority level for @p cpu (multicore extension). */
    unsigned corePriority(uint8_t cpu) const;

    const RlrConfig &config() const { return config_; }

  private:
    struct LineState
    {
        // Widest field first, so that padding leaves one line's
        // state at 24 bytes; there is one per LLC line.
        /** Exact recency timestamp (unoptimized variant only). */
        uint64_t last_use = 0;
        /** Age counter (saturating; units depend on variant). */
        uint32_t age = 0;
        /** Hit register/counter value. */
        uint32_t hits = 0;
        /** True when the last access was a prefetch. */
        bool last_was_prefetch = false;
        /** Issuing core of the last access (multicore). */
        uint8_t cpu = 0;
    };
    static_assert(sizeof(LineState) <= 24);

    LineState &line(uint32_t set, uint32_t way);
    const LineState &line(uint32_t set, uint32_t way) const;

    /** Line age converted to RD's units (scaled when optimized). */
    uint64_t ageUnits(const LineState &ls) const;

    /** Advance per-line ages for one access to @p set. */
    void ageSet(uint32_t set, bool miss);

    /** Accumulate a demand-hit preuse sample; maybe refresh RD. */
    void samplePreuse(uint32_t preuse);

    void updateCorePriorities();

    RlrConfig config_;
    uint32_t ways_ = 0;
    uint32_t num_sets_ = 0;
    uint32_t age_max_ = 3;
    uint32_t hit_max_ = 1;

    std::vector<LineState> lines_;
    /** 3-bit per-set miss counters (optimized variant). */
    std::vector<uint8_t> set_miss_ctr_;

    /** Predicted reuse distance in age-counter units. */
    uint64_t rd_ = 1;
    uint64_t preuse_accum_ = 0;
    unsigned preuse_samples_ = 0;

    uint64_t clock_ = 0;
    uint64_t accesses_ = 0;

    /** Multicore state. */
    std::vector<uint64_t> core_demand_hits_;
    std::vector<unsigned> core_priority_;
};

} // namespace rlr::core

#endif // RLR_CORE_RLR_HH
