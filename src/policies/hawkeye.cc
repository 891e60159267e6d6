#include "policies/hawkeye.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/sat_counter.hh"

namespace rlr::policies
{

HawkeyePolicy::HawkeyePolicy(HawkeyeConfig config) : config_(config)
{
    util::ensure(config_.rrpv_bits >= 1 && config_.rrpv_bits <= 8,
                 "Hawkeye: bad RRPV width");
    util::ensure(config_.sampled_sets >= 1,
                 "Hawkeye: need at least one sampled set");
    util::ensure(config_.history_factor >= 1,
                 "Hawkeye: zero OPTgen history window");
    util::ensure(config_.predictor_bits >= 1 &&
                     config_.predictor_bits <= 24,
                 "Hawkeye: bad predictor index width");
    util::ensure(config_.counter_bits >= 1 &&
                     config_.counter_bits <= 8,
                 "Hawkeye: bad predictor counter width");
    max_rrpv_ =
        static_cast<uint8_t>((1u << config_.rrpv_bits) - 1);
}

void
HawkeyePolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    num_sets_ = geom.numSets();
    lines_.assign(static_cast<size_t>(num_sets_) * ways_,
                  LineState{});
    for (auto &ls : lines_)
        ls.rrpv = max_rrpv_;

    const uint32_t sampled =
        std::min(config_.sampled_sets, num_sets_);
    sample_period_ = std::max(1u, num_sets_ / sampled);
    history_len_ = config_.history_factor * ways_;
    samplers_.assign(sampled, SamplerSet{});
    for (auto &s : samplers_)
        s.occupancy.assign(history_len_, 0);

    // Counters start at the friendly threshold so a cold predictor
    // behaves like LRU rather than bypassing everything.
    predictor_max_ =
        static_cast<uint8_t>(util::mask(config_.counter_bits));
    friendly_threshold_ =
        static_cast<uint8_t>(1u << (config_.counter_bits - 1));
    predictor_.assign(1ULL << config_.predictor_bits,
                      friendly_threshold_);
}

HawkeyePolicy::LineState &
HawkeyePolicy::line(uint32_t set, uint32_t way)
{
    return lines_[static_cast<size_t>(set) * ways_ + way];
}

uint32_t
HawkeyePolicy::pcSignature(uint64_t pc) const
{
    return static_cast<uint32_t>(
        util::foldXor(pc >> 2, config_.predictor_bits));
}

HawkeyePolicy::SamplerSet *
HawkeyePolicy::sampler(uint32_t set)
{
    if (set % sample_period_ != 0)
        return nullptr;
    const uint32_t idx = set / sample_period_;
    if (idx >= samplers_.size())
        return nullptr;
    return &samplers_[idx];
}

bool
HawkeyePolicy::predictsFriendly(uint64_t pc) const
{
    return predictor_[pcSignature(pc)] >= friendly_threshold_;
}

void
HawkeyePolicy::trainOnSample(SamplerSet &samp, uint64_t line_addr,
                             uint32_t pc_sig)
{
    const uint64_t now = samp.time;
    const auto it = samp.entries.find(line_addr);
    if (it != samp.entries.end()) {
        const uint64_t last = it->second.first;
        const uint32_t last_sig = it->second.second;
        // OPTgen: the reuse is an OPT hit iff its interval fits
        // the history window and no quantum in [last, now) is at
        // full occupancy.
        bool opt_hit = now - last < history_len_;
        for (uint64_t t = last; opt_hit && t < now; ++t)
            opt_hit = samp.occupancy[t % history_len_] < ways_;
        if (opt_hit) {
            for (uint64_t t = last; t < now; ++t)
                ++samp.occupancy[t % history_len_];
            util::satIncrement(predictor_[last_sig], predictor_max_);
        } else {
            util::satDecrement(predictor_[last_sig]);
        }
        if (optgen_observer_)
            optgen_observer_(opt_hit);
        it->second = {now, pc_sig};
    } else {
        samp.entries.emplace(line_addr, std::make_pair(now, pc_sig));
    }

    // Advance time and clear the occupancy slot being recycled.
    ++samp.time;
    samp.occupancy[samp.time % history_len_] = 0;

    // Bound the sampler: drop entries that fell out of the window.
    if (samp.entries.size() > 2ULL * history_len_) {
        for (auto e = samp.entries.begin();
             e != samp.entries.end();) {
            if (samp.time - e->second.first >= history_len_)
                e = samp.entries.erase(e);
            else
                ++e;
        }
    }
}

uint32_t
HawkeyePolicy::findVictim(const cache::AccessContext &ctx,
                          std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    const size_t base = static_cast<size_t>(ctx.set) * ways_;

    // Prefer a cache-averse line.
    for (uint32_t w = 0; w < ways_; ++w) {
        if (lines_[base + w].rrpv == max_rrpv_)
            return w;
    }
    // All friendly: evict the oldest and detrain its PC.
    uint32_t victim = 0;
    uint8_t oldest = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (lines_[base + w].rrpv >= oldest) {
            oldest = lines_[base + w].rrpv;
            victim = w;
        }
    }
    util::satDecrement(predictor_[lines_[base + victim].pc_sig]);
    return victim;
}

void
HawkeyePolicy::onAccess(const cache::AccessContext &ctx)
{
    LineState &ls = line(ctx.set, ctx.way);

    if (ctx.type == trace::AccessType::Writeback) {
        if (!ctx.hit) {
            // Writeback fills are averse but never trained.
            ls.rrpv = max_rrpv_;
            ls.pc_sig = 0;
            ls.friendly = false;
        }
        return;
    }

    // Prefetch accesses train and predict in their own signature
    // space, as in the original (a PC whose demand loads are
    // friendly may still issue dead prefetches).
    uint32_t sig = pcSignature(ctx.pc);
    if (ctx.type == trace::AccessType::Prefetch)
        sig = (sig ^ 0x1555u) & ((1u << config_.predictor_bits) - 1);

    // Feed the sampled-set OPTgen model (demand + prefetch).
    if (SamplerSet *samp = sampler(ctx.set)) {
        trainOnSample(*samp,
                      cache::CacheGeometry::lineAddress(
                          ctx.full_addr),
                      sig);
    }

    const bool friendly = predictor_[sig] >= friendly_threshold_;
    ls.pc_sig = sig;
    ls.friendly = friendly;
    if (!friendly) {
        ls.rrpv = max_rrpv_;
        return;
    }
    // Friendly access: take MRU position; age other friendly lines
    // on fills so "oldest friendly" stays meaningful.
    if (!ctx.hit) {
        const size_t base = static_cast<size_t>(ctx.set) * ways_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (w == ctx.way)
                continue;
            LineState &other = lines_[base + w];
            if (other.rrpv < max_rrpv_ - 1)
                ++other.rrpv;
        }
    }
    ls.rrpv = 0;
}

cache::StorageOverhead
HawkeyePolicy::overhead() const
{
    cache::StorageOverhead o;
    // 3-bit RRIP per line; predictor + sampler + OPTgen vectors as
    // globals. Matches the paper's 28KB for a 2MB/16-way LLC.
    o.bits_per_line = config_.rrpv_bits;
    const double predictor_bits =
        static_cast<double>(1ULL << config_.predictor_bits) *
        config_.counter_bits;
    // Sampler entries store compressed address tags plus a packed
    // (time, signature) pair; the occupancy vectors are 4-bit
    // saturating counts. This matches the original's ~16KB
    // sampler+OPTgen budget (total 28KB at 2MB).
    const double sampler_bits =
        static_cast<double>(config_.sampled_sets) *
        (config_.history_factor * 16.0) * 13.0;
    o.global_bits = predictor_bits + sampler_bits;
    return o;
}

} // namespace rlr::policies
