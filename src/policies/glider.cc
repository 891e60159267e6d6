#include "policies/glider.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace rlr::policies
{

GliderPolicy::GliderPolicy(GliderConfig config) : config_(config)
{
    max_rrpv_ =
        static_cast<uint8_t>((1u << config_.rrpv_bits) - 1);
    util::ensure(util::isPowerOfTwo(config_.isvm_entries),
                 "Glider: isvm_entries must be a power of two");
    util::ensure(util::isPowerOfTwo(config_.weights_per_entry),
                 "Glider: weights_per_entry must be a power of two");
}

void
GliderPolicy::bind(const cache::CacheGeometry &geom)
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

    weights_.assign(static_cast<size_t>(config_.isvm_entries) *
                        config_.weights_per_entry,
                    0);
    history_.clear();
}

GliderPolicy::LineState &
GliderPolicy::line(uint32_t set, uint32_t way)
{
    return lines_[static_cast<size_t>(set) * ways_ + way];
}

uint32_t
GliderPolicy::pcIndex(uint64_t pc) const
{
    return static_cast<uint32_t>(
        util::foldXor(pc >> 2,
                      util::ceilLog2(config_.isvm_entries)) &
        (config_.isvm_entries - 1));
}

std::vector<uint16_t>
GliderPolicy::weightSlots() const
{
    // One weight slot per history PC, selected by a hash of that
    // PC (the ISVM's sparse feature vector).
    std::vector<uint16_t> slots;
    slots.reserve(history_.size());
    for (const auto pc : history_) {
        slots.push_back(static_cast<uint16_t>(
            util::foldXor(pc >> 2, util::ceilLog2(
                                       config_.weights_per_entry)) &
            (config_.weights_per_entry - 1)));
    }
    return slots;
}

int
GliderPolicy::sumWeights(uint32_t pc_index,
                         const std::vector<uint16_t> &slots) const
{
    const size_t base =
        static_cast<size_t>(pc_index) * config_.weights_per_entry;
    int sum = 0;
    for (const auto s : slots)
        sum += weights_[base + s];
    return sum;
}

void
GliderPolicy::train(uint32_t pc_index,
                    const std::vector<uint16_t> &slots,
                    bool friendly)
{
    // Perceptron-style update with margin: only move weights while
    // the decision is not yet confidently correct.
    const int sum = sumWeights(pc_index, slots);
    if (friendly && sum > config_.margin)
        return;
    if (!friendly && sum < -config_.margin)
        return;
    const size_t base =
        static_cast<size_t>(pc_index) * config_.weights_per_entry;
    for (const auto s : slots) {
        int16_t &w = weights_[base + s];
        if (friendly && w < config_.weight_max)
            ++w;
        else if (!friendly && w > -config_.weight_max)
            --w;
    }
}

GliderPolicy::SamplerSet *
GliderPolicy::sampler(uint32_t set)
{
    if (set % sample_period_ != 0)
        return nullptr;
    const uint32_t idx = set / sample_period_;
    if (idx >= samplers_.size())
        return nullptr;
    return &samplers_[idx];
}

void
GliderPolicy::updateHistory(uint64_t pc)
{
    // Unordered history: drop duplicates, keep the last K PCs.
    for (auto it = history_.begin(); it != history_.end(); ++it) {
        if (*it == pc) {
            history_.erase(it);
            break;
        }
    }
    history_.push_back(pc);
    while (history_.size() > config_.history_length)
        history_.pop_front();
}

int
GliderPolicy::decisionValue(uint64_t pc) const
{
    return sumWeights(pcIndex(pc), weightSlots());
}

bool
GliderPolicy::predictsFriendly(uint64_t pc) const
{
    return decisionValue(pc) >= config_.threshold;
}

uint32_t
GliderPolicy::findVictim(const cache::AccessContext &ctx,
                         std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    const size_t base = static_cast<size_t>(ctx.set) * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (lines_[base + w].rrpv == max_rrpv_)
            return w;
    }
    // All friendly: evict the oldest and detrain its signature.
    uint32_t victim = 0;
    uint8_t oldest = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (lines_[base + w].rrpv >= oldest) {
            oldest = lines_[base + w].rrpv;
            victim = w;
        }
    }
    LineState &ls = lines_[base + victim];
    if (!ls.weight_slots.empty())
        train(ls.pc_index, ls.weight_slots, false);
    return victim;
}

void
GliderPolicy::onAccess(const cache::AccessContext &ctx)
{
    LineState &ls = line(ctx.set, ctx.way);

    if (ctx.type == trace::AccessType::Writeback) {
        if (!ctx.hit) {
            ls.rrpv = max_rrpv_;
            ls.weight_slots.clear();
            ls.friendly = false;
        }
        return;
    }

    if (trace::isDemand(ctx.type))
        updateHistory(ctx.pc);

    const uint32_t pc_idx = pcIndex(ctx.pc);
    const auto slots = weightSlots();

    // OPTgen training on sampled sets.
    if (trace::isDemand(ctx.type) ||
        ctx.type == trace::AccessType::Prefetch) {
        if (SamplerSet *samp = sampler(ctx.set)) {
            const uint64_t addr =
                cache::CacheGeometry::lineAddress(ctx.full_addr);
            const uint64_t now = samp->time;
            const auto it = samp->entries.find(addr);
            if (it != samp->entries.end()) {
                const auto &[last, last_pc, last_slots] =
                    it->second;
                const uint64_t span = now - last;
                bool opt_hit = false;
                if (span < history_len_) {
                    opt_hit = true;
                    for (uint64_t t = last; t < now; ++t) {
                        if (samp->occupancy[t % history_len_] >=
                            ways_) {
                            opt_hit = false;
                            break;
                        }
                    }
                    if (opt_hit) {
                        for (uint64_t t = last; t < now; ++t)
                            ++samp->occupancy[t % history_len_];
                    }
                }
                train(last_pc, last_slots, opt_hit);
                it->second = {now, pc_idx, slots};
            } else {
                samp->entries.emplace(
                    addr, std::make_tuple(now, pc_idx, slots));
            }
            ++samp->time;
            samp->occupancy[samp->time % history_len_] = 0;
            if (samp->entries.size() > 2ULL * history_len_) {
                for (auto e = samp->entries.begin();
                     e != samp->entries.end();) {
                    if (samp->time - std::get<0>(e->second) >=
                        history_len_)
                        e = samp->entries.erase(e);
                    else
                        ++e;
                }
            }
        }
    }

    const int sum = sumWeights(pc_idx, slots);
    const bool friendly = sum >= config_.threshold;
    ls.pc_index = pc_idx;
    ls.weight_slots = slots;
    ls.friendly = friendly;
    if (!friendly) {
        ls.rrpv = max_rrpv_;
        return;
    }
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
    // Glider inserts confident-friendly lines at MRU and
    // low-confidence ones slightly aged.
    ls.rrpv = sum >= config_.margin ? 0 : 1;
}

cache::StorageOverhead
GliderPolicy::overhead() const
{
    cache::StorageOverhead o;
    // 3b RRIP per line + the ISVM weight tables + PCHR + sampler,
    // following the paper's 61.6KB figure for 2MB/16-way.
    o.bits_per_line = config_.rrpv_bits;
    const double isvm_bits =
        static_cast<double>(config_.isvm_entries) *
        config_.weights_per_entry * 6.0;
    const double sampler_bits =
        static_cast<double>(config_.sampled_sets) *
        (config_.history_factor * 16.0) *
        25.6; // tag + time + PCHR snapshot per sampler entry
    o.global_bits = isvm_bits + sampler_bits +
                    config_.history_length * 16.0;
    return o;
}

} // namespace rlr::policies
