/**
 * @file
 * Random replacement: the zero-metadata floor for comparisons.
 */

#ifndef RLR_POLICIES_RANDOM_HH
#define RLR_POLICIES_RANDOM_HH

#include "cache/replacement.hh"
#include "util/rng.hh"

namespace rlr::policies
{

/** Uniform-random victim selection (deterministic given the seed). */
class RandomPolicy : public cache::ReplacementPolicy
{
  public:
    explicit RandomPolicy(uint64_t seed = 1);

    void bind(const cache::CacheGeometry &geom) override;
    /** Restart the victim RNG stream from the original seed. */
    void reset(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    std::string name() const override { return "Random"; }
    cache::StorageOverhead overhead() const override;

  private:
    uint64_t seed_;
    util::Rng rng_;
    uint32_t ways_ = 0;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_RANDOM_HH
