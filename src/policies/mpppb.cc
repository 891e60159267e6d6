#include "policies/mpppb.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace rlr::policies
{

MpppbPolicy::MpppbPolicy(MpppbConfig config) : config_(config)
{
    util::ensure(util::isPowerOfTwo(config_.table_entries),
                 "MPPPB: table_entries must be a power of two");
}

void
MpppbPolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    num_sets_ = geom.numSets();
    clock_ = 0;
    lines_.assign(static_cast<size_t>(num_sets_) * ways_,
                  LineState{});
    weights_.assign(static_cast<size_t>(kNumFeatures) *
                        config_.table_entries,
                    0);
}

MpppbPolicy::LineState &
MpppbPolicy::line(uint32_t set, uint32_t way)
{
    return lines_[static_cast<size_t>(set) * ways_ + way];
}

std::array<uint32_t, MpppbPolicy::kNumFeatures>
MpppbPolicy::featureIndices(uint64_t pc, uint64_t address,
                            trace::AccessType type) const
{
    const uint32_t mask = config_.table_entries - 1;
    const unsigned bits = util::ceilLog2(config_.table_entries);
    std::array<uint32_t, kNumFeatures> idx{};
    // Perspective 1: the PC itself.
    idx[0] = static_cast<uint32_t>(util::foldXor(pc >> 2, bits)) &
             mask;
    // Perspective 2: PC xor high address bits (data structure).
    idx[1] = static_cast<uint32_t>(
                 util::foldXor((pc >> 2) ^ (address >> 16), bits)) &
             mask;
    // Perspective 3: cache-line address bits.
    idx[2] = static_cast<uint32_t>(
                 util::foldXor(address >> 6, bits)) &
             mask;
    // Perspective 4: access type (coarse, few live entries).
    idx[3] = static_cast<uint32_t>(type) & mask;
    return idx;
}

int
MpppbPolicy::sum(
    const std::array<uint32_t, kNumFeatures> &idx) const
{
    int total = 0;
    for (size_t f = 0; f < kNumFeatures; ++f)
        total += weights_[f * config_.table_entries + idx[f]];
    return total;
}

void
MpppbPolicy::train(const std::array<uint32_t, kNumFeatures> &idx,
                   bool reused)
{
    const int s = sum(idx);
    if (reused && s > config_.margin)
        return;
    if (!reused && s < -config_.margin)
        return;
    for (size_t f = 0; f < kNumFeatures; ++f) {
        int16_t &w = weights_[f * config_.table_entries + idx[f]];
        if (reused && w < config_.weight_max)
            ++w;
        else if (!reused && w > -config_.weight_max)
            --w;
    }
}

int
MpppbPolicy::predict(uint64_t pc, uint64_t address,
                     trace::AccessType type) const
{
    return sum(featureIndices(pc, address, type));
}

uint32_t
MpppbPolicy::findVictim(const cache::AccessContext &ctx,
                        std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    // Bypass confidently dead fills.
    if (config_.allow_bypass && ctx.allow_bypass &&
        ctx.type != trace::AccessType::Writeback) {
        const int s =
            predict(ctx.pc, ctx.full_addr, ctx.type);
        if (s < -config_.bypass_margin)
            return kBypass;
    }

    const size_t base = static_cast<size_t>(ctx.set) * ways_;
    // Prefer a predicted-dead line; else the least recently used.
    uint32_t victim = ways_;
    uint64_t oldest_dead = ~0ULL;
    for (uint32_t w = 0; w < ways_; ++w) {
        const LineState &ls = lines_[base + w];
        if (ls.predicted_dead && ls.last_use < oldest_dead) {
            oldest_dead = ls.last_use;
            victim = w;
        }
    }
    if (victim != ways_)
        return victim;
    victim = 0;
    uint64_t oldest = lines_[base].last_use;
    for (uint32_t w = 1; w < ways_; ++w) {
        if (lines_[base + w].last_use < oldest) {
            oldest = lines_[base + w].last_use;
            victim = w;
        }
    }
    return victim;
}

void
MpppbPolicy::onAccess(const cache::AccessContext &ctx)
{
    LineState &ls = line(ctx.set, ctx.way);
    if (ctx.hit && ls.trained_sample &&
        trace::isDemand(ctx.type)) {
        // The line was reused: positive training for the features
        // captured at its previous access.
        train(ls.feature_idx, true);
    }
    ls.feature_idx =
        featureIndices(ctx.pc, ctx.full_addr, ctx.type);
    ls.trained_sample = true;
    ls.last_use = ++clock_;
    // Re-predict the line's fate with the fresh features.
    ls.predicted_dead =
        sum(ls.feature_idx) < config_.threshold;
}

void
MpppbPolicy::onEviction(uint32_t set, uint32_t way,
                        const cache::BlockView &block)
{
    (void)block;
    LineState &ls = line(set, way);
    if (ls.trained_sample) {
        // Evicted without reuse: negative training.
        train(ls.feature_idx, false);
        ls.trained_sample = false;
    }
}

cache::StorageOverhead
MpppbPolicy::overhead() const
{
    cache::StorageOverhead o;
    // Per-line predicted-dead bit + sampled feature state, plus
    // the perceptron tables — the paper's Table I lists 28KB for
    // a 2MB/16-way LLC.
    o.bits_per_line = 1 + 5;
    const double table_bits =
        static_cast<double>(kNumFeatures) *
        config_.table_entries * 6.0;
    o.global_bits = table_bits + 64;
    return o;
}

} // namespace rlr::policies
