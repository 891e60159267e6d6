/**
 * @file
 * Signature-based Hit Predictor replacement (Wu et al., MICRO 2011)
 * and the SHiP++ refinements (Young et al., CRC2 2017). Both are
 * PC-based: they index a Signature History Counter Table (SHCT) by
 * a hashed PC signature and choose the insertion RRPV from the
 * signature's observed re-reference behaviour.
 */

#ifndef RLR_POLICIES_SHIP_HH
#define RLR_POLICIES_SHIP_HH

#include <vector>

#include "cache/replacement.hh"

namespace rlr::policies
{

/** Shared configuration for SHiP-family policies. */
struct ShipConfig
{
    /** RRPV bits per line. */
    unsigned rrpv_bits = 2;
    /** PC signature width (SHCT index bits). */
    unsigned signature_bits = 14;
    /** SHCT counter width. */
    unsigned shct_bits = 3;
};

/** SHiP replacement. */
class ShipPolicy : public cache::ReplacementPolicy
{
  public:
    explicit ShipPolicy(ShipConfig config = {});

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    void onEviction(uint32_t set, uint32_t way,
                    const cache::BlockView &block) override;
    void verifyInvariants(
        uint32_t set,
        std::span<const cache::BlockView> blocks) const override;
    std::string name() const override { return "SHiP"; }
    bool usesPc() const override { return true; }
    cache::StorageOverhead overhead() const override;

    /** SHCT counter value for a raw PC (tests). */
    uint64_t shctValue(uint64_t pc) const;

  protected:
    struct LineState
    {
        uint8_t rrpv = 3;
        uint32_t signature = 0;
        /** Set once the line is re-referenced (outcome bit). */
        bool outcome = false;
        /** Line was filled by a prefetch access. */
        bool prefetched = false;
    };

    uint32_t signature(uint64_t pc,
                       trace::AccessType type) const;
    LineState &line(uint32_t set, uint32_t way);
    uint32_t agingVictim(uint32_t set);

    /** Insertion hook; SHiP++ overrides. */
    virtual uint8_t insertionRrpv(const cache::AccessContext &ctx,
                                  uint32_t sig);
    /** Hit hook; SHiP++ overrides. */
    virtual void handleHit(const cache::AccessContext &ctx,
                           LineState &ls);

    ShipConfig config_;
    uint8_t max_rrpv_ = 3;
    uint32_t ways_ = 0;
    uint32_t num_sets_ = 0;
    std::vector<LineState> lines_;
    /** SHCT: shct_bits-wide saturating counters, one byte each. */
    std::vector<uint8_t> shct_;
    uint8_t shct_max_ = 7;
};

/** SHiP++ refinements over SHiP. */
class ShipPPPolicy : public ShipPolicy
{
  public:
    explicit ShipPPPolicy(ShipConfig config = {});

    std::string name() const override { return "SHiP++"; }
    cache::StorageOverhead overhead() const override;

  protected:
    uint8_t insertionRrpv(const cache::AccessContext &ctx,
                          uint32_t sig) override;
    void handleHit(const cache::AccessContext &ctx,
                   LineState &ls) override;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_SHIP_HH
