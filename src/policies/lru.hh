/**
 * @file
 * Least-recently-used replacement. The baseline every experiment
 * normalizes against, and the policy used while capturing LLC
 * traces for offline RL training (as in the paper).
 */

#ifndef RLR_POLICIES_LRU_HH
#define RLR_POLICIES_LRU_HH

#include <vector>

#include "cache/replacement.hh"

namespace rlr::policies
{

/** True LRU via per-line last-use timestamps. */
class LruPolicy : public cache::ReplacementPolicy
{
  public:
    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    void verifyInvariants(
        uint32_t set,
        std::span<const cache::BlockView> blocks) const override;
    std::string name() const override { return "LRU"; }
    cache::StorageOverhead overhead() const override;

    /** Recency rank of a way: 0 = LRU ... ways-1 = MRU (tests). */
    uint32_t recencyRank(uint32_t set, uint32_t way) const;

    /** Observational priority = recency rank (event log). */
    uint64_t
    victimPriority(uint32_t set, uint32_t way) const override
    {
        return recencyRank(set, way);
    }

  private:
    uint32_t ways_ = 0;
    uint64_t clock_ = 0;
    std::vector<uint64_t> last_use_;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_LRU_HH
