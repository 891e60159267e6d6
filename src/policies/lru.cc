#include "policies/lru.hh"

#include <stdexcept>

#include "util/bits.hh"
#include "util/format.hh"

namespace rlr::policies
{

void
LruPolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    clock_ = 0;
    last_use_.assign(static_cast<size_t>(geom.numSets()) * ways_, 0);
}

uint32_t
LruPolicy::findVictim(const cache::AccessContext &ctx,
                      std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    const size_t base = static_cast<size_t>(ctx.set) * ways_;
    uint32_t victim = 0;
    uint64_t oldest = last_use_[base];
    for (uint32_t w = 1; w < ways_; ++w) {
        if (last_use_[base + w] < oldest) {
            oldest = last_use_[base + w];
            victim = w;
        }
    }
    return victim;
}

void
LruPolicy::onAccess(const cache::AccessContext &ctx)
{
    last_use_[static_cast<size_t>(ctx.set) * ways_ + ctx.way] =
        ++clock_;
}

void
LruPolicy::verifyInvariants(
    uint32_t set, std::span<const cache::BlockView> blocks) const
{
    (void)blocks;
    const size_t base = static_cast<size_t>(set) * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (last_use_[base + w] > clock_) {
            throw std::logic_error(util::format(
                "LRU: last_use {} of set {} way {} ahead of "
                "clock {}",
                last_use_[base + w], set, w, clock_));
        }
    }
}

cache::StorageOverhead
LruPolicy::overhead() const
{
    cache::StorageOverhead o;
    // log2(ways) recency bits per line (4 bits for 16 ways -> the
    // paper's 16KB for a 2MB cache).
    o.bits_per_line = ways_ ? util::ceilLog2(ways_) : 4;
    return o;
}

uint32_t
LruPolicy::recencyRank(uint32_t set, uint32_t way) const
{
    const size_t base = static_cast<size_t>(set) * ways_;
    const uint64_t mine = last_use_[base + way];
    uint32_t rank = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (w != way && last_use_[base + w] < mine)
            ++rank;
    }
    return rank;
}

} // namespace rlr::policies
