#include "policies/belady.hh"

#include <algorithm>

#include "cache/geometry.hh"
#include "util/logging.hh"

namespace rlr::policies
{

BeladyOracle::BeladyOracle(const trace::LlcTrace &trace)
{
    length_ = trace.size();
    for (uint64_t i = 0; i < trace.size(); ++i) {
        const uint64_t line =
            cache::CacheGeometry::lineAddress(trace[i].address);
        positions_[line].push_back(i);
    }
}

uint64_t
BeladyOracle::nextUse(uint64_t line_addr, uint64_t seq) const
{
    const auto it = positions_.find(line_addr);
    if (it == positions_.end())
        return kNever;
    const auto &vec = it->second;
    const auto pos = std::upper_bound(vec.begin(), vec.end(), seq);
    return pos == vec.end() ? kNever : *pos;
}

BeladyPolicy::BeladyPolicy(
    std::shared_ptr<const BeladyOracle> oracle, bool allow_bypass)
    : oracle_(std::move(oracle)), allow_bypass_(allow_bypass)
{
    util::ensure(oracle_ != nullptr, "BeladyPolicy: null oracle");
}

void
BeladyPolicy::bind(const cache::CacheGeometry &geom)
{
    (void)geom;
}

uint32_t
BeladyPolicy::findVictim(const cache::AccessContext &ctx,
                         std::span<const uint64_t> line_addrs)
{
    uint32_t victim = 0;
    uint64_t farthest = 0;
    for (uint32_t w = 0; w < line_addrs.size(); ++w) {
        const uint64_t next = oracle_->nextUse(line_addrs[w], seq_);
        if (next == BeladyOracle::kNever)
            return w;
        if (next > farthest) {
            farthest = next;
            victim = w;
        }
    }
    if (allow_bypass_ && ctx.allow_bypass &&
        ctx.type != trace::AccessType::Writeback) {
        const uint64_t incoming = oracle_->nextUse(
            cache::CacheGeometry::lineAddress(ctx.full_addr), seq_);
        if (incoming > farthest)
            return kBypass;
    }
    return victim;
}

void
BeladyPolicy::onAccess(const cache::AccessContext &ctx)
{
    (void)ctx;
}

cache::StorageOverhead
BeladyPolicy::overhead() const
{
    // Not implementable in hardware; reported as zero.
    return {};
}

} // namespace rlr::policies
