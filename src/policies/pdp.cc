#include "policies/pdp.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rlr::policies
{

PdpPolicy::PdpPolicy(PdpConfig config)
    : config_(config), pd_(config.initial_pd)
{
    util::ensure(config_.max_pd >= 8, "PDP: max_pd too small");
}

void
PdpPolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    num_sets_ = geom.numSets();
    ages_.assign(static_cast<size_t>(num_sets_) * ways_, 0);
    reuse_hist_.assign(config_.max_pd + 1, 0);
    no_reuse_ = 0;
    accesses_ = 0;
    pd_ = config_.initial_pd;
}

uint32_t &
PdpPolicy::age(uint32_t set, uint32_t way)
{
    return ages_[static_cast<size_t>(set) * ways_ + way];
}

void
PdpPolicy::recomputePd()
{
    // Choose d maximizing estimated hits per unit of occupied
    // cache time:
    //   E(d) = hits(<=d) / (sum_{i<=d} i*h(i) + d * misses(>d))
    uint64_t total = no_reuse_;
    for (uint32_t i = 1; i <= config_.max_pd; ++i)
        total += reuse_hist_[i];
    if (total == 0)
        return;

    double best_e = -1.0;
    uint32_t best_d = pd_;
    uint64_t hits_cum = 0;
    uint64_t time_cum = 0;
    for (uint32_t d = 1; d <= config_.max_pd; ++d) {
        hits_cum += reuse_hist_[d];
        time_cum += static_cast<uint64_t>(d) * reuse_hist_[d];
        const uint64_t unreused = total - hits_cum;
        const double occupancy = static_cast<double>(
            time_cum + static_cast<uint64_t>(d) * unreused);
        if (occupancy <= 0.0)
            continue;
        const double e = static_cast<double>(hits_cum) / occupancy;
        if (e > best_e) {
            best_e = e;
            best_d = d;
        }
    }
    pd_ = best_d;

    // Decay the histogram so PD follows program phases.
    for (auto &h : reuse_hist_)
        h /= 2;
    no_reuse_ /= 2;
}

uint32_t
PdpPolicy::findVictim(const cache::AccessContext &ctx,
                      std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    const size_t base = static_cast<size_t>(ctx.set) * ways_;

    // Prefer the unprotected line with the largest age.
    uint32_t victim = ways_;
    uint32_t oldest = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        const uint32_t a = ages_[base + w];
        if (a >= pd_ && a >= oldest) {
            oldest = a;
            victim = w;
        }
    }
    if (victim != ways_)
        return victim;

    if (config_.allow_bypass && ctx.allow_bypass &&
        ctx.type != trace::AccessType::Writeback)
        return kBypass;

    // No unprotected line and no bypass: evict the youngest line
    // (fewest set accesses), per the paper.
    victim = 0;
    uint32_t youngest = ages_[base];
    for (uint32_t w = 1; w < ways_; ++w) {
        if (ages_[base + w] < youngest) {
            youngest = ages_[base + w];
            victim = w;
        }
    }
    return victim;
}

void
PdpPolicy::onAccess(const cache::AccessContext &ctx)
{
    ++accesses_;
    const size_t base = static_cast<size_t>(ctx.set) * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (ages_[base + w] < config_.max_pd * 4)
            ++ages_[base + w];
    }

    uint32_t &a = ages_[base + ctx.way];
    if (ctx.hit) {
        ++reuse_hist_[std::min(a, config_.max_pd)];
    }
    a = 0;

    if (accesses_ % config_.update_interval == 0)
        recomputePd();
}

void
PdpPolicy::onEviction(uint32_t set, uint32_t way,
                      const cache::BlockView &block)
{
    (void)set;
    (void)way;
    (void)block;
    ++no_reuse_;
}

cache::StorageOverhead
PdpPolicy::overhead() const
{
    cache::StorageOverhead o;
    // Distance counter per line + histogram + PD search state.
    o.bits_per_line = 8;
    o.global_bits = (config_.max_pd + 1) * 16.0 + 64;
    return o;
}

} // namespace rlr::policies
