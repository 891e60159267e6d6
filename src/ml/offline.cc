#include "ml/offline.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "cache/geometry.hh"
#include "stats/stats.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace rlr::ml
{

double
OfflineStats::hitRate() const
{
    return stats::hitRate(hits, accesses);
}

double
OfflineStats::demandHitRate() const
{
    return stats::hitRate(demand_hits, demand_accesses);
}

double
FeatureStats::avgVictimAge(trace::AccessType type) const
{
    const auto t = static_cast<size_t>(type);
    return victim_count[t] == 0
               ? 0.0
               : static_cast<double>(victim_age_sum[t]) /
                     static_cast<double>(victim_count[t]);
}

OfflineSimulator::OfflineSimulator(OfflineConfig config,
                                   const trace::LlcTrace *trace)
    : config_(config), trace_(trace), ways_(config.ways),
      num_sets_(static_cast<uint32_t>(
          config.size_bytes / (cache::kLineBytes * config.ways))),
      extractor_(ways_, num_sets_), victim_addrs_(ways_),
      oracle_(std::make_shared<policies::BeladyOracle>(*trace))
{
    util::ensure(trace_ != nullptr, "OfflineSimulator: null trace");
    util::ensure(util::isPowerOfTwo(num_sets_),
                 "OfflineSimulator: non power-of-two sets");
    resetState();
}

std::shared_ptr<const policies::BeladyOracle>
OfflineSimulator::oracle() const
{
    return oracle_;
}

void
OfflineSimulator::resetState()
{
    lines_.assign(static_cast<size_t>(num_sets_) * ways_,
                  LineFeatures{});
    sets_.assign(num_sets_, SetFeatures{});
    last_use_.assign(static_cast<size_t>(num_sets_) * ways_, 0);
    clock_ = 0;
    history_.clear();
    fstats_ = FeatureStats{};
    fstats_.victim_recency.assign(ways_, 0);
}

uint32_t
OfflineSimulator::setIndex(uint64_t address) const
{
    return static_cast<uint32_t>(
        (address >> cache::kLineBits) & (num_sets_ - 1));
}

void
OfflineSimulator::refreshRecency(uint32_t set)
{
    const size_t base = static_cast<size_t>(set) * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        uint32_t rank = 0;
        for (uint32_t o = 0; o < ways_; ++o) {
            if (o != w && last_use_[base + o] < last_use_[base + w])
                ++rank;
        }
        lines_[base + w].recency = rank;
    }
}

void
OfflineSimulator::touchLine(uint32_t set, uint32_t way,
                            const trace::LlcAccess &access, bool hit)
{
    const size_t idx = static_cast<size_t>(set) * ways_ + way;
    LineFeatures &lf = lines_[idx];
    if (hit) {
        lf.preuse = lf.age_last;
        lf.age_last = 0;
        ++lf.hits;
    } else {
        lf = LineFeatures{};
        lf.valid = true;
        lf.address = cache::CacheGeometry::lineAddress(
            access.address);
    }
    lf.last_type = access.type;
    ++lf.type_counts[static_cast<size_t>(access.type)];
    if (access.type == trace::AccessType::Rfo ||
        access.type == trace::AccessType::Writeback)
        lf.dirty = true;
    last_use_[idx] = ++clock_;
}

void
OfflineSimulator::recordVictim(uint32_t set, uint32_t way)
{
    const size_t idx = static_cast<size_t>(set) * ways_ + way;
    const LineFeatures &lf = lines_[idx];
    if (!lf.valid)
        return;
    ++fstats_.victim_count[static_cast<size_t>(lf.last_type)];
    fstats_.victim_age_sum[static_cast<size_t>(lf.last_type)] +=
        lf.age_last;
    if (lf.hits == 0)
        ++fstats_.victims_zero_hits;
    else if (lf.hits == 1)
        ++fstats_.victims_one_hit;
    else
        ++fstats_.victims_multi_hits;
    ++fstats_.victim_recency[std::min(lf.recency, ways_ - 1)];
}

float
OfflineSimulator::reward(uint32_t set, uint32_t victim_way,
                         uint64_t insert_addr, uint64_t seq) const
{
    const size_t base = static_cast<size_t>(set) * ways_;
    const uint64_t victim_next =
        oracle_->nextUse(lines_[base + victim_way].address, seq);

    uint64_t farthest = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        const uint64_t next =
            oracle_->nextUse(lines_[base + w].address, seq);
        farthest = std::max(farthest, next);
        if (next == policies::BeladyOracle::kNever) {
            farthest = policies::BeladyOracle::kNever;
            break;
        }
    }

    if (victim_next == farthest)
        return 1.0f; // the Belady-optimal eviction
    const uint64_t insert_next = oracle_->nextUse(
        cache::CacheGeometry::lineAddress(insert_addr), seq);
    if (victim_next < insert_next)
        return -1.0f; // evicted a line that would hit sooner
    return 0.0f;
}

OfflineStats
OfflineSimulator::runPolicy(cache::ReplacementPolicy &policy,
                            bool warm_pass)
{
    resetState();
    cache::CacheGeometry geom;
    geom.name = "offline";
    geom.size_bytes = config_.size_bytes;
    geom.ways = ways_;
    policy.bind(geom);
    if (warm_pass) {
        replayPolicy(policy);
        fstats_ = FeatureStats{};
        fstats_.victim_recency.assign(ways_, 0);
    }
    return replayPolicy(policy);
}

OfflineStats
OfflineSimulator::replayPolicy(cache::ReplacementPolicy &policy)
{
    auto *belady = dynamic_cast<policies::BeladyPolicy *>(&policy);

    OfflineStats stats;
    for (uint64_t seq = 0; seq < trace_->size(); ++seq) {
        const trace::LlcAccess &access = (*trace_)[seq];
        const uint64_t line_addr =
            cache::CacheGeometry::lineAddress(access.address);
        const uint32_t set = setIndex(access.address);
        const size_t base = static_cast<size_t>(set) * ways_;

        if (belady)
            belady->setPosition(seq);

        // Bookkeeping shared with the agent path.
        SetFeatures &sf = sets_[set];
        ++sf.accesses;
        for (uint32_t w = 0; w < ways_; ++w) {
            LineFeatures &lf = lines_[base + w];
            if (lf.valid) {
                ++lf.age_insert;
                ++lf.age_last;
            }
        }
        auto &hist = history_[line_addr];
        const uint32_t preuse = sf.accesses -
                                hist.last_set_accesses;
        if (hist.seen) {
            if (hist.has_prev) {
                const uint32_t diff =
                    hist.prev_interval > preuse
                        ? hist.prev_interval - preuse
                        : preuse - hist.prev_interval;
                if (diff < 10)
                    ++fstats_.preuse_reuse_lt10;
                else if (diff <= 50)
                    ++fstats_.preuse_reuse_10to50;
                else
                    ++fstats_.preuse_reuse_gt50;
            }
            hist.prev_interval = preuse;
            hist.has_prev = true;
        }
        hist.last_set_accesses = sf.accesses;
        hist.seen = true;

        ++stats.accesses;
        const bool demand = trace::isDemand(access.type);
        if (demand)
            ++stats.demand_accesses;

        // Lookup.
        uint32_t way = ways_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (lines_[base + w].valid &&
                lines_[base + w].address == line_addr) {
                way = w;
                break;
            }
        }

        cache::AccessContext ctx;
        ctx.cpu = access.cpu;
        ctx.set = set;
        ctx.full_addr = access.address;
        ctx.pc = access.pc;
        ctx.type = access.type;

        if (way != ways_) {
            ++stats.hits;
            if (demand)
                ++stats.demand_hits;
            sf.accesses_since_miss += 1;
            touchLine(set, way, access, true);
            ctx.way = way;
            ctx.hit = true;
            policy.onAccess(ctx);
            continue;
        }

        ++stats.misses;
        sf.accesses_since_miss = 0;

        // Fill an invalid way if available.
        uint32_t victim = ways_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (!lines_[base + w].valid) {
                victim = w;
                ++stats.compulsory_misses;
                break;
            }
        }
        if (victim == ways_) {
            for (uint32_t w = 0; w < ways_; ++w)
                victim_addrs_[w] = lines_[base + w].address;
            ctx.hit = false;
            victim = policy.findVictim(ctx, victim_addrs_);
            if (victim == cache::ReplacementPolicy::kBypass &&
                access.type != trace::AccessType::Writeback) {
                ++stats.bypasses;
                continue;
            }
            if (victim >= ways_)
                victim = 0;
            refreshRecency(set);
            recordVictim(set, victim);
            policy.onEviction(set, victim,
                              cache::BlockView{
                                  true,
                                  lines_[base + victim].dirty,
                                  false,
                                  lines_[base + victim].address});
            ++stats.evictions;
        }
        touchLine(set, victim, access, false);
        ctx.way = victim;
        ctx.hit = false;
        policy.onAccess(ctx);
    }
    return stats;
}

OfflineStats
OfflineSimulator::runAgent(DqnAgent &agent, bool train,
                           bool warm_pass)
{
    resetState();
    if (warm_pass) {
        replayAgent(agent, false);
        fstats_ = FeatureStats{};
        fstats_.victim_recency.assign(ways_, 0);
    }
    return replayAgent(agent, train);
}

OfflineStats
OfflineSimulator::replayAgent(DqnAgent &agent, bool train)
{
    OfflineStats stats;
    const double saved_epsilon = agent.epsilon();
    if (!train)
        agent.setEpsilon(0.0);

    for (uint64_t seq = 0; seq < trace_->size(); ++seq) {
        const trace::LlcAccess &access = (*trace_)[seq];
        const uint64_t line_addr =
            cache::CacheGeometry::lineAddress(access.address);
        const uint32_t set = setIndex(access.address);
        const size_t base = static_cast<size_t>(set) * ways_;

        SetFeatures &sf = sets_[set];
        ++sf.accesses;
        for (uint32_t w = 0; w < ways_; ++w) {
            LineFeatures &lf = lines_[base + w];
            if (lf.valid) {
                ++lf.age_insert;
                ++lf.age_last;
            }
        }
        auto &hist = history_[line_addr];
        const uint32_t preuse = sf.accesses -
                                hist.last_set_accesses;
        if (hist.seen) {
            if (hist.has_prev) {
                const uint32_t diff =
                    hist.prev_interval > preuse
                        ? hist.prev_interval - preuse
                        : preuse - hist.prev_interval;
                if (diff < 10)
                    ++fstats_.preuse_reuse_lt10;
                else if (diff <= 50)
                    ++fstats_.preuse_reuse_10to50;
                else
                    ++fstats_.preuse_reuse_gt50;
            }
            hist.prev_interval = preuse;
            hist.has_prev = true;
        }
        const uint32_t access_preuse =
            hist.seen ? preuse : 0;
        hist.last_set_accesses = sf.accesses;
        hist.seen = true;

        ++stats.accesses;
        const bool demand = trace::isDemand(access.type);
        if (demand)
            ++stats.demand_accesses;

        uint32_t way = ways_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (lines_[base + w].valid &&
                lines_[base + w].address == line_addr) {
                way = w;
                break;
            }
        }

        if (way != ways_) {
            ++stats.hits;
            if (demand)
                ++stats.demand_hits;
            sf.accesses_since_miss += 1;
            touchLine(set, way, access, true);
            continue;
        }

        ++stats.misses;
        sf.accesses_since_miss = 0;

        uint32_t victim = ways_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (!lines_[base + w].valid) {
                victim = w;
                ++stats.compulsory_misses;
                break;
            }
        }
        if (victim == ways_) {
            // Agent decision.
            refreshRecency(set);
            AccessFeatures af;
            af.address = access.address;
            af.preuse = access_preuse;
            af.type = access.type;
            af.set = set;
            auto state = extractor_.extract(
                af, sf, std::span(lines_).subspan(base, ways_));
            victim = agent.act(state) % ways_;
            if (train) {
                const float r =
                    reward(set, victim, access.address, seq);
                stats.total_reward += r;
                agent.observe(
                    Transition{std::move(state), victim, r});
            }
            recordVictim(set, victim);
            ++stats.evictions;
        }
        touchLine(set, victim, access, false);
    }

    agent.setEpsilon(saved_epsilon);
    return stats;
}

} // namespace rlr::ml
