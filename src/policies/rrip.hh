/**
 * @file
 * The RRIP family (Jaleel et al., ISCA 2010): SRRIP, BRRIP, and
 * set-dueling DRRIP. Each line carries an M-bit re-reference
 * prediction value (RRPV); victims are lines predicted to be
 * re-referenced in the distant future (max RRPV).
 */

#ifndef RLR_POLICIES_RRIP_HH
#define RLR_POLICIES_RRIP_HH

#include <vector>

#include "cache/replacement.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"

namespace rlr::policies
{

/**
 * Common RRIP machinery: per-line RRPVs, aging-based victim
 * search, hit promotion. Subclasses choose the insertion RRPV.
 */
class RripBase : public cache::ReplacementPolicy
{
  public:
    /** @param rrpv_bits RRPV width (2 -> values 0..3). */
    explicit RripBase(unsigned rrpv_bits = 2);

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    void verifyInvariants(
        uint32_t set,
        std::span<const cache::BlockView> blocks) const override;

    /** RRPV of a way (tests). */
    uint8_t rrpv(uint32_t set, uint32_t way) const;

    /** Observational priority = RRPV (event log). */
    uint64_t
    victimPriority(uint32_t set, uint32_t way) const override
    {
        return rrpv(set, way);
    }

  protected:
    /** @return insertion RRPV for this fill. */
    virtual uint8_t insertionRrpv(const cache::AccessContext &ctx) = 0;

    unsigned rrpvBits() const { return rrpv_bits_; }
    uint8_t maxRrpv() const { return max_rrpv_; }
    uint32_t ways() const { return ways_; }
    uint32_t numSets() const { return num_sets_; }

    /** Direct RRPV override for subclasses with bespoke promotion. */
    void setRrpv(uint32_t set, uint32_t way, uint8_t value);

  private:
    unsigned rrpv_bits_;
    uint8_t max_rrpv_;
    uint32_t ways_ = 0;
    uint32_t num_sets_ = 0;
    std::vector<uint8_t> rrpv_;
};

/** Static RRIP: always insert at long re-reference (max-1). */
class SrripPolicy : public RripBase
{
  public:
    explicit SrripPolicy(unsigned rrpv_bits = 2);
    std::string name() const override { return "SRRIP"; }
    cache::StorageOverhead overhead() const override;

  protected:
    uint8_t insertionRrpv(const cache::AccessContext &ctx) override;
};

/**
 * Bimodal RRIP: insert at distant (max) RRPV, with a 1/32 chance
 * of long (max-1) to retain a trickle of the working set.
 */
class BrripPolicy : public RripBase
{
  public:
    explicit BrripPolicy(unsigned rrpv_bits = 2, uint64_t seed = 7);
    /** Re-bind and restart the bimodal RNG stream. */
    void reset(const cache::CacheGeometry &geom) override;
    std::string name() const override { return "BRRIP"; }
    cache::StorageOverhead overhead() const override;

  protected:
    uint8_t insertionRrpv(const cache::AccessContext &ctx) override;

  private:
    uint64_t seed_;
    util::Rng rng_;
};

/**
 * Dynamic RRIP: set dueling between SRRIP and BRRIP insertion.
 * A few leader sets are dedicated to each policy; a PSEL counter
 * tracks which leader group misses less and follower sets copy
 * the winner.
 */
class DrripPolicy : public RripBase
{
  public:
    /** @param leader_sets leaders per policy (32 in the paper) */
    explicit DrripPolicy(unsigned rrpv_bits = 2,
                         uint32_t leader_sets = 32,
                         uint64_t seed = 7);

    void bind(const cache::CacheGeometry &geom) override;
    /** Re-bind, restart the RNG stream, and zero the PSEL duel. */
    void reset(const cache::CacheGeometry &geom) override;
    void onAccess(const cache::AccessContext &ctx) override;
    std::string name() const override { return "DRRIP"; }
    cache::StorageOverhead overhead() const override;

    /** @return true when followers currently use BRRIP (tests). */
    bool brripSelected() const { return psel_.value() < 0; }

    /** Leader-set classification (tests). */
    enum class SetRole { SrripLeader, BrripLeader, Follower };
    SetRole setRole(uint32_t set) const;

  protected:
    uint8_t insertionRrpv(const cache::AccessContext &ctx) override;

  private:
    uint32_t leader_sets_;
    uint64_t seed_;
    util::Rng rng_;
    util::SignedSatCounter psel_{10, 0};
};

} // namespace rlr::policies

#endif // RLR_POLICIES_RRIP_HH
