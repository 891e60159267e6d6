/**
 * @file
 * EVA replacement (Beckmann & Sanchez, HPCA 2017): ranks lines by
 * Economic Value Added — the expected future hits of a line minus
 * the cache-space opportunity cost of keeping it. Hit and eviction
 * age distributions are gathered per class (reused vs not-yet-
 * reused) and the EVA ranking is recomputed periodically.
 *
 * As the paper notes, EVA does not account for non-demand access
 * types; prefetch traffic can skew the age/value correlation, which
 * is visible in the reproduction results just as in the paper's.
 */

#ifndef RLR_POLICIES_EVA_HH
#define RLR_POLICIES_EVA_HH

#include <vector>

#include "cache/replacement.hh"

namespace rlr::policies
{

/** EVA configuration. */
struct EvaConfig
{
    /** Number of coarsened age buckets. */
    uint32_t age_buckets = 64;
    /** Set accesses per age-bucket increment. */
    uint32_t age_granularity = 8;
    /** Accesses between ranking recomputations. */
    uint64_t update_interval = 1 << 16;
};

/** EVA policy. */
class EvaPolicy : public cache::ReplacementPolicy
{
  public:
    explicit EvaPolicy(EvaConfig config = {});

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    void onEviction(uint32_t set, uint32_t way,
                    const cache::BlockView &block) override;
    std::string name() const override { return "EVA"; }
    cache::StorageOverhead overhead() const override;

    /** Current rank of (reused, age): lower = evict first (tests). */
    double rank(bool reused, uint32_t age_bucket) const;

  private:
    struct LineState
    {
        /** Set accesses since last touch (pre-coarsening). */
        uint32_t age_raw = 0;
        bool reused = false;
    };

    uint32_t ageBucket(uint32_t age_raw) const;
    void recompute();
    LineState &line(uint32_t set, uint32_t way);

    EvaConfig config_;
    uint32_t ways_ = 0;
    uint32_t num_sets_ = 0;
    std::vector<LineState> lines_;

    /** Event histograms per class [reused][age]. */
    std::vector<uint64_t> hits_[2];
    std::vector<uint64_t> evictions_[2];
    /** EVA rank per class [reused][age]. */
    std::vector<double> rank_[2];
    uint64_t accesses_ = 0;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_EVA_HH
