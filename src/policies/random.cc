#include "policies/random.hh"

namespace rlr::policies
{

RandomPolicy::RandomPolicy(uint64_t seed)
    : seed_(seed), rng_(seed)
{
}

void
RandomPolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
}

void
RandomPolicy::reset(const cache::CacheGeometry &geom)
{
    rng_ = util::Rng(seed_);
    bind(geom);
}

uint32_t
RandomPolicy::findVictim(const cache::AccessContext &ctx,
                         std::span<const uint64_t> line_addrs)
{
    (void)ctx;
    (void)line_addrs;
    return static_cast<uint32_t>(rng_.nextBounded(ways_));
}

void
RandomPolicy::onAccess(const cache::AccessContext &ctx)
{
    (void)ctx;
}

cache::StorageOverhead
RandomPolicy::overhead() const
{
    cache::StorageOverhead o;
    o.global_bits = 32; // LFSR
    return o;
}

} // namespace rlr::policies
