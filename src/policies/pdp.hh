/**
 * @file
 * Protecting Distance based Policy (Duong et al., MICRO 2012).
 * Lines are protected from eviction until PD set-accesses have
 * elapsed since their last touch. PD is recomputed periodically by
 * maximizing estimated hits per unit of cache occupancy over a
 * sampled reuse-distance histogram (the original dedicates a tiny
 * special-purpose processor to this search).
 */

#ifndef RLR_POLICIES_PDP_HH
#define RLR_POLICIES_PDP_HH

#include <vector>

#include "cache/replacement.hh"

namespace rlr::policies
{

/** PDP configuration. */
struct PdpConfig
{
    /** Maximum protecting distance considered by the search. */
    uint32_t max_pd = 256;
    /** Accesses between PD recomputations. */
    uint64_t update_interval = 1 << 16;
    /** Initial protecting distance. */
    uint32_t initial_pd = 64;
    /** Allow bypass when every line is protected. */
    bool allow_bypass = true;
};

/** PDP policy. */
class PdpPolicy : public cache::ReplacementPolicy
{
  public:
    explicit PdpPolicy(PdpConfig config = {});

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    void onEviction(uint32_t set, uint32_t way,
                    const cache::BlockView &block) override;
    std::string name() const override { return "PDP"; }
    cache::StorageOverhead overhead() const override;

    /** Current protecting distance (tests). */
    uint32_t protectingDistance() const { return pd_; }

  private:
    void recomputePd();
    uint32_t &age(uint32_t set, uint32_t way);

    PdpConfig config_;
    uint32_t ways_ = 0;
    uint32_t num_sets_ = 0;
    uint32_t pd_ = 64;
    /** Set accesses since last touch, per line. */
    std::vector<uint32_t> ages_;
    /** Reuse-distance histogram (hits) + no-reuse mass. */
    std::vector<uint64_t> reuse_hist_;
    uint64_t no_reuse_ = 0;
    uint64_t accesses_ = 0;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_PDP_HH
