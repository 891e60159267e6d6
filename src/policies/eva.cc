#include "policies/eva.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rlr::policies
{

EvaPolicy::EvaPolicy(EvaConfig config) : config_(config)
{
    util::ensure(config_.age_buckets >= 2, "EVA: too few buckets");
}

void
EvaPolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    num_sets_ = geom.numSets();
    lines_.assign(static_cast<size_t>(num_sets_) * ways_,
                  LineState{});
    for (int c = 0; c < 2; ++c) {
        hits_[c].assign(config_.age_buckets, 0);
        evictions_[c].assign(config_.age_buckets, 0);
        rank_[c].assign(config_.age_buckets, 0.0);
    }
    // Cold-start ranking: behave like LRU (older -> evict first),
    // with not-yet-reused lines slightly cheaper to evict.
    for (uint32_t a = 0; a < config_.age_buckets; ++a) {
        rank_[0][a] = -static_cast<double>(a) - 0.5;
        rank_[1][a] = -static_cast<double>(a);
    }
    accesses_ = 0;
}

EvaPolicy::LineState &
EvaPolicy::line(uint32_t set, uint32_t way)
{
    return lines_[static_cast<size_t>(set) * ways_ + way];
}

uint32_t
EvaPolicy::ageBucket(uint32_t age_raw) const
{
    return std::min(config_.age_buckets - 1,
                    age_raw / config_.age_granularity);
}

double
EvaPolicy::rank(bool reused, uint32_t age_bucket) const
{
    return rank_[reused ? 1 : 0]
                [std::min(age_bucket, config_.age_buckets - 1)];
}

void
EvaPolicy::recompute()
{
    // Opportunity cost per unit of cache time: aggregate hit rate
    // over aggregate observed lifetime.
    double total_hits = 0.0;
    double total_life = 0.0;
    for (int c = 0; c < 2; ++c) {
        for (uint32_t a = 0; a < config_.age_buckets; ++a) {
            const double events = static_cast<double>(
                hits_[c][a] + evictions_[c][a]);
            total_hits += static_cast<double>(hits_[c][a]);
            total_life += events * (a + 1);
        }
    }
    const double cost_rate =
        total_life > 0.0 ? total_hits / total_life : 0.0;

    for (int c = 0; c < 2; ++c) {
        // Backward sweep: expected hits-to-go and lifetime-to-go
        // conditioned on having survived to age a.
        double surv = 0.0;
        double hits_togo = 0.0;
        double life_togo = 0.0;
        for (int a = static_cast<int>(config_.age_buckets) - 1;
             a >= 0; --a) {
            const double ev = static_cast<double>(
                hits_[c][a] + evictions_[c][a]);
            surv += ev;
            hits_togo += static_cast<double>(hits_[c][a]);
            life_togo += surv; // every surviving line spends one
                               // bucket of time at age a
            if (surv > 0.0) {
                rank_[c][a] =
                    (hits_togo - cost_rate * life_togo) / surv;
            } else {
                rank_[c][a] = -static_cast<double>(a) * 1e-3;
            }
        }
    }

    // Exponential decay so the ranking tracks phase changes.
    for (int c = 0; c < 2; ++c) {
        for (uint32_t a = 0; a < config_.age_buckets; ++a) {
            hits_[c][a] /= 2;
            evictions_[c][a] /= 2;
        }
    }
}

uint32_t
EvaPolicy::findVictim(const cache::AccessContext &ctx,
                      std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    const size_t base = static_cast<size_t>(ctx.set) * ways_;
    uint32_t victim = 0;
    double lowest = 1e300;
    for (uint32_t w = 0; w < ways_; ++w) {
        const LineState &ls = lines_[base + w];
        const double r =
            rank_[ls.reused ? 1 : 0][ageBucket(ls.age_raw)];
        if (r < lowest) {
            lowest = r;
            victim = w;
        }
    }
    return victim;
}

void
EvaPolicy::onAccess(const cache::AccessContext &ctx)
{
    ++accesses_;
    const size_t base = static_cast<size_t>(ctx.set) * ways_;

    // Every set access ages the whole set.
    for (uint32_t w = 0; w < ways_; ++w) {
        if (lines_[base + w].age_raw <
            config_.age_buckets * config_.age_granularity)
            ++lines_[base + w].age_raw;
    }

    LineState &ls = lines_[base + ctx.way];
    if (ctx.hit) {
        ++hits_[ls.reused ? 1 : 0][ageBucket(ls.age_raw)];
        ls.reused = true;
        ls.age_raw = 0;
    } else {
        ls.reused = false;
        ls.age_raw = 0;
    }

    if (accesses_ % config_.update_interval == 0)
        recompute();
}

void
EvaPolicy::onEviction(uint32_t set, uint32_t way,
                      const cache::BlockView &block)
{
    (void)block;
    LineState &ls = line(set, way);
    ++evictions_[ls.reused ? 1 : 0][ageBucket(ls.age_raw)];
}

cache::StorageOverhead
EvaPolicy::overhead() const
{
    cache::StorageOverhead o;
    // Coarse age (7b) + class bit per line; histograms and ranking
    // table as globals (the original uses ~8KB of SRAM + a tiny
    // microcontroller for the periodic solve).
    o.bits_per_line = 8;
    o.global_bits =
        2.0 * config_.age_buckets * (2 * 16.0 /*hist*/ + 8.0);
    return o;
}

} // namespace rlr::policies
