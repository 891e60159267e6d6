#include "policies/rrip.hh"

#include <stdexcept>

#include "util/format.hh"
#include "util/logging.hh"

namespace rlr::policies
{

RripBase::RripBase(unsigned rrpv_bits)
    : rrpv_bits_(rrpv_bits),
      max_rrpv_(static_cast<uint8_t>((1u << rrpv_bits) - 1))
{
    util::ensure(rrpv_bits >= 1 && rrpv_bits <= 8,
                 "RripBase: bad RRPV width");
}

void
RripBase::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    num_sets_ = geom.numSets();
    rrpv_.assign(static_cast<size_t>(num_sets_) * ways_, max_rrpv_);
}

uint8_t
RripBase::rrpv(uint32_t set, uint32_t way) const
{
    return rrpv_[static_cast<size_t>(set) * ways_ + way];
}

void
RripBase::setRrpv(uint32_t set, uint32_t way, uint8_t value)
{
    rrpv_[static_cast<size_t>(set) * ways_ + way] = value;
}

uint32_t
RripBase::findVictim(const cache::AccessContext &ctx,
                     std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    const size_t base = static_cast<size_t>(ctx.set) * ways_;
    // Age until some line reaches the distant-future RRPV; bounded
    // by max_rrpv_ iterations.
    for (;;) {
        for (uint32_t w = 0; w < ways_; ++w) {
            if (rrpv_[base + w] >= max_rrpv_)
                return w;
        }
        for (uint32_t w = 0; w < ways_; ++w)
            ++rrpv_[base + w];
    }
}

void
RripBase::onAccess(const cache::AccessContext &ctx)
{
    const size_t idx = static_cast<size_t>(ctx.set) * ways_ + ctx.way;
    if (ctx.hit) {
        // Hit promotion: near-immediate re-reference predicted.
        rrpv_[idx] = 0;
    } else {
        rrpv_[idx] = insertionRrpv(ctx);
    }
}

void
RripBase::verifyInvariants(
    uint32_t set, std::span<const cache::BlockView> blocks) const
{
    (void)blocks;
    const size_t base = static_cast<size_t>(set) * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (rrpv_[base + w] > max_rrpv_) {
            throw std::logic_error(util::format(
                "RRIP: RRPV {} of set {} way {} exceeds the "
                "{}-bit maximum {}",
                rrpv_[base + w], set, w, rrpv_bits_, max_rrpv_));
        }
    }
}

SrripPolicy::SrripPolicy(unsigned rrpv_bits) : RripBase(rrpv_bits) {}

uint8_t
SrripPolicy::insertionRrpv(const cache::AccessContext &ctx)
{
    (void)ctx;
    return static_cast<uint8_t>(maxRrpv() - 1);
}

cache::StorageOverhead
SrripPolicy::overhead() const
{
    cache::StorageOverhead o;
    o.bits_per_line = rrpvBits();
    return o;
}

BrripPolicy::BrripPolicy(unsigned rrpv_bits, uint64_t seed)
    : RripBase(rrpv_bits), seed_(seed), rng_(seed)
{
}

void
BrripPolicy::reset(const cache::CacheGeometry &geom)
{
    rng_ = util::Rng(seed_);
    bind(geom);
}

uint8_t
BrripPolicy::insertionRrpv(const cache::AccessContext &ctx)
{
    (void)ctx;
    // 1-in-32 long re-reference insertion, else distant.
    if (rng_.nextBounded(32) == 0)
        return static_cast<uint8_t>(maxRrpv() - 1);
    return maxRrpv();
}

cache::StorageOverhead
BrripPolicy::overhead() const
{
    cache::StorageOverhead o;
    o.bits_per_line = rrpvBits();
    o.global_bits = 5; // BIP throttle counter
    return o;
}

DrripPolicy::DrripPolicy(unsigned rrpv_bits, uint32_t leader_sets,
                         uint64_t seed)
    : RripBase(rrpv_bits), leader_sets_(leader_sets), seed_(seed),
      rng_(seed)
{
    util::ensure(leader_sets_ >= 1,
                 "DRRIP: need at least one leader set per policy");
}

void
DrripPolicy::reset(const cache::CacheGeometry &geom)
{
    // bind() does not touch the duel state or the RNG stream; a
    // flushed cache must look exactly like a newly built one.
    rng_ = util::Rng(seed_);
    psel_ = util::SignedSatCounter(10, 0);
    bind(geom);
}

void
DrripPolicy::bind(const cache::CacheGeometry &geom)
{
    RripBase::bind(geom);
    util::ensure(geom.numSets() >= 2 * leader_sets_,
                 "DRRIP: too few sets for dueling");
}

DrripPolicy::SetRole
DrripPolicy::setRole(uint32_t set) const
{
    // Interleave leaders through the cache: every (sets/leaders)
    // -th set leads for SRRIP; the next one leads for BRRIP.
    const uint32_t period = numSets() / leader_sets_;
    if (set % period == 0)
        return SetRole::SrripLeader;
    if (set % period == 1)
        return SetRole::BrripLeader;
    return SetRole::Follower;
}

void
DrripPolicy::onAccess(const cache::AccessContext &ctx)
{
    if (!ctx.hit) {
        // Misses in leader sets steer PSEL toward the other policy.
        switch (setRole(ctx.set)) {
          case SetRole::SrripLeader:
            --psel_;
            break;
          case SetRole::BrripLeader:
            ++psel_;
            break;
          case SetRole::Follower:
            break;
        }
    }
    RripBase::onAccess(ctx);
}

uint8_t
DrripPolicy::insertionRrpv(const cache::AccessContext &ctx)
{
    bool use_brrip = false;
    switch (setRole(ctx.set)) {
      case SetRole::SrripLeader:
        use_brrip = false;
        break;
      case SetRole::BrripLeader:
        use_brrip = true;
        break;
      case SetRole::Follower:
        use_brrip = brripSelected();
        break;
    }
    if (!use_brrip)
        return static_cast<uint8_t>(maxRrpv() - 1);
    if (rng_.nextBounded(32) == 0)
        return static_cast<uint8_t>(maxRrpv() - 1);
    return maxRrpv();
}

cache::StorageOverhead
DrripPolicy::overhead() const
{
    cache::StorageOverhead o;
    o.bits_per_line = rrpvBits();
    o.global_bits = 10 + 5; // PSEL + BIP throttle
    return o;
}

} // namespace rlr::policies
