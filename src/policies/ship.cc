#include "policies/ship.hh"

#include <stdexcept>

#include "util/bits.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace rlr::policies
{

ShipPolicy::ShipPolicy(ShipConfig config) : config_(config)
{
    util::ensure(config_.rrpv_bits >= 1 && config_.rrpv_bits <= 8,
                 "SHiP: bad RRPV width");
    util::ensure(config_.signature_bits >= 1 &&
                     config_.signature_bits <= 24,
                 "SHiP: bad signature width");
    util::ensure(config_.shct_bits >= 1 && config_.shct_bits <= 8,
                 "SHiP: bad SHCT counter width");
    max_rrpv_ =
        static_cast<uint8_t>((1u << config_.rrpv_bits) - 1);
}

void
ShipPolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    num_sets_ = geom.numSets();
    lines_.assign(static_cast<size_t>(num_sets_) * ways_,
                  LineState{});
    for (auto &ls : lines_)
        ls.rrpv = max_rrpv_;
    shct_.assign(1ULL << config_.signature_bits,
                 util::SatCounter(config_.shct_bits, 1));
}

ShipPolicy::LineState &
ShipPolicy::line(uint32_t set, uint32_t way)
{
    return lines_[static_cast<size_t>(set) * ways_ + way];
}

uint32_t
ShipPolicy::signature(uint64_t pc, trace::AccessType type) const
{
    // SHiP++ gives prefetch accesses their own signature space; in
    // base SHiP all types share the PC hash. We fold the access
    // type into the hash only for prefetches, which base SHiP
    // never sees distinct (its insertionRrpv ignores the bit).
    uint64_t key = pc >> 2;
    if (type == trace::AccessType::Prefetch)
        key ^= 0x2aaaaaaaaaaaULL;
    return static_cast<uint32_t>(
        util::foldXor(key, config_.signature_bits));
}

uint32_t
ShipPolicy::agingVictim(uint32_t set)
{
    const size_t base = static_cast<size_t>(set) * ways_;
    for (;;) {
        for (uint32_t w = 0; w < ways_; ++w) {
            if (lines_[base + w].rrpv >= max_rrpv_)
                return w;
        }
        for (uint32_t w = 0; w < ways_; ++w)
            ++lines_[base + w].rrpv;
    }
}

uint32_t
ShipPolicy::findVictim(const cache::AccessContext &ctx,
                       std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    return agingVictim(ctx.set);
}

uint8_t
ShipPolicy::insertionRrpv(const cache::AccessContext &ctx,
                          uint32_t sig)
{
    if (ctx.type == trace::AccessType::Writeback)
        return max_rrpv_;
    // Dead-on-arrival signatures go to distant; everything else to
    // long re-reference (RRPV 2 of 3), as in the SHiP paper.
    if (shct_[sig].value() == 0)
        return max_rrpv_;
    return static_cast<uint8_t>(max_rrpv_ - 1);
}

void
ShipPolicy::handleHit(const cache::AccessContext &ctx, LineState &ls)
{
    (void)ctx;
    ls.rrpv = 0;
    if (!ls.outcome) {
        ls.outcome = true;
        ++shct_[ls.signature];
    }
}

void
ShipPolicy::onAccess(const cache::AccessContext &ctx)
{
    LineState &ls = line(ctx.set, ctx.way);
    if (ctx.hit) {
        if (ctx.type == trace::AccessType::Writeback) {
            // Writeback hits do not indicate reuse by the program;
            // leave the prediction state untouched.
            return;
        }
        handleHit(ctx, ls);
        return;
    }
    // Fill.
    const uint32_t sig = signature(ctx.pc, ctx.type);
    ls.signature = sig;
    ls.outcome = false;
    ls.prefetched = ctx.type == trace::AccessType::Prefetch;
    ls.rrpv = insertionRrpv(ctx, sig);
}

void
ShipPolicy::onEviction(uint32_t set, uint32_t way,
                       const cache::BlockView &block)
{
    (void)block;
    LineState &ls = line(set, way);
    if (!ls.outcome) {
        // Dead line: its signature produced no re-reference.
        --shct_[ls.signature];
    }
}

void
ShipPolicy::verifyInvariants(
    uint32_t set, std::span<const cache::BlockView> blocks) const
{
    (void)blocks;
    const size_t base = static_cast<size_t>(set) * ways_;
    const uint32_t sig_limit = 1u << config_.signature_bits;
    for (uint32_t w = 0; w < ways_; ++w) {
        const LineState &ls = lines_[base + w];
        if (ls.rrpv > max_rrpv_) {
            throw std::logic_error(util::format(
                "SHiP: RRPV {} of set {} way {} exceeds the "
                "{}-bit maximum {}",
                ls.rrpv, set, w, config_.rrpv_bits, max_rrpv_));
        }
        if (ls.signature >= sig_limit) {
            throw std::logic_error(util::format(
                "SHiP: signature {} of set {} way {} outside the "
                "{}-bit table",
                ls.signature, set, w, config_.signature_bits));
        }
        const auto &ctr = shct_[ls.signature];
        if (ctr.value() > ctr.maxValue()) {
            throw std::logic_error(util::format(
                "SHiP: SHCT[{}] = {} exceeds the {}-bit maximum",
                ls.signature, ctr.value(), config_.shct_bits));
        }
    }
}

cache::StorageOverhead
ShipPolicy::overhead() const
{
    cache::StorageOverhead o;
    // RRPV per line plus the SHCT, the accounting behind the
    // paper's 14KB figure for a 2MB/16-way LLC. (Per-line
    // signatures are sampled in the hardware proposal and not
    // charged.)
    o.bits_per_line = config_.rrpv_bits;
    o.global_bits = static_cast<double>(1ULL << config_.signature_bits) *
                    config_.shct_bits;
    return o;
}

uint64_t
ShipPolicy::shctValue(uint64_t pc) const
{
    return shct_[signature(pc, trace::AccessType::Load)].value();
}

ShipPPPolicy::ShipPPPolicy(ShipConfig config) : ShipPolicy(config) {}

uint8_t
ShipPPPolicy::insertionRrpv(const cache::AccessContext &ctx,
                            uint32_t sig)
{
    // SHiP++: writebacks inserted distant; saturated signatures
    // inserted at RRPV 0; prefetches get a separate signature
    // (handled in signature()) and default to distant when cold.
    if (ctx.type == trace::AccessType::Writeback)
        return max_rrpv_;
    const uint64_t ctr = shct_[sig].value();
    if (ctr == shct_[sig].maxValue())
        return 0;
    if (ctr == 0)
        return max_rrpv_;
    if (ctx.type == trace::AccessType::Prefetch)
        return static_cast<uint8_t>(max_rrpv_ - 1);
    return static_cast<uint8_t>(max_rrpv_ - 1);
}

void
ShipPPPolicy::handleHit(const cache::AccessContext &ctx,
                        LineState &ls)
{
    // Prefetch-aware promotion: a prefetch hit on a previously
    // prefetched, never-demanded line keeps it near-distant
    // rather than promoting to MRU.
    if (ctx.type == trace::AccessType::Prefetch) {
        if (ls.prefetched && !ls.outcome)
            ls.rrpv = static_cast<uint8_t>(max_rrpv_ - 1);
        else
            ls.rrpv = 0;
        return;
    }
    ls.rrpv = 0;
    ls.prefetched = false;
    if (!ls.outcome) {
        // Train only on the first re-reference.
        ls.outcome = true;
        ++shct_[ls.signature];
    }
}

cache::StorageOverhead
ShipPPPolicy::overhead() const
{
    cache::StorageOverhead o = ShipPolicy::overhead();
    // SHiP++ widens training state (per the paper's 20KB figure):
    // extra per-line bits for prefetch tracking and finer
    // insertion control.
    o.bits_per_line += 1.5;
    return o;
}

} // namespace rlr::policies
