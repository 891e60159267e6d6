/**
 * @file
 * Replacement-policy interface, CRC2-flavoured but idiomatic C++.
 *
 * The cache calls `findVictim` on every fill into a full set and
 * `onAccess` on every lookup (hit or fill). Policies own all of their metadata,
 * sized at bind() time from the cache geometry, and report a
 * storage-overhead model used to regenerate the paper's Table I.
 *
 * The program counter is available in the AccessContext because
 * PC-based baselines (SHiP, SHiP++, Hawkeye) need it; RLR and the
 * other non-PC policies never read it, mirroring the paper's
 * hardware constraint.
 */

#ifndef RLR_CACHE_REPLACEMENT_HH
#define RLR_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "cache/geometry.hh"
#include "stats/registry.hh"
#include "trace/record.hh"

namespace rlr::cache
{

/**
 * Why a fill was skipped. The cache stamps LowConfidencePrefetch
 * on its own fill-level-control path; policies returning kBypass
 * report their reason through
 * ReplacementPolicy::bypassReason().
 */
enum class BypassReason : uint8_t
{
    /** Not a bypass (default on non-bypass events). */
    None = 0,
    /** Policy declined the fill (generic). */
    Policy,
    /** RLR age protection: every line still young. */
    AgeProtected,
    /** Fill-level control: prefetch confidence below threshold. */
    LowConfidencePrefetch,
};

/** Number of distinct bypass reason codes. */
inline constexpr size_t kNumBypassReasons = 4;

/** Everything a policy may observe about one access. */
struct AccessContext
{
    /** Issuing core. */
    uint8_t cpu = 0;
    /** Set index of the access. */
    uint32_t set = 0;
    /** Way touched: the hit way, or the fill way. */
    uint32_t way = 0;
    /** Full byte address. */
    uint64_t full_addr = 0;
    /** Program counter of the triggering instruction (0 for WB). */
    uint64_t pc = 0;
    /** LLC access type (LD / RFO / PF / WB). */
    trace::AccessType type = trace::AccessType::Load;
    /** True on hit, false on fill-after-miss. */
    bool hit = false;
    /**
     * False when the cache will not honour kBypass for this fill
     * (writeback re-query after a denied bypass): the policy must
     * return a real victim way. Bypass-capable policies check this
     * in addition to their own type filters.
     */
    bool allow_bypass = true;
};

/** Read-only view of one cache block exposed to policies. */
struct BlockView
{
    bool valid = false;
    bool dirty = false;
    /** Filled by a prefetch and not yet demand-referenced. */
    bool prefetch = false;
    /** Line-aligned byte address (valid lines only). */
    uint64_t address = 0;
};

/**
 * Storage overhead model for a policy: metadata bits per cache
 * line, per set, and global (tables, counters).
 */
struct StorageOverhead
{
    double bits_per_line = 0;
    double bits_per_set = 0;
    double global_bits = 0;

    /** @return total overhead in bytes for @p geom. */
    double
    totalBytes(const CacheGeometry &geom) const
    {
        const double bits =
            bits_per_line * static_cast<double>(geom.numLines()) +
            bits_per_set * static_cast<double>(geom.numSets()) +
            global_bits;
        return bits / 8.0;
    }

    /** @return total overhead in KiB for @p geom. */
    double
    totalKiB(const CacheGeometry &geom) const
    {
        return totalBytes(geom) / 1024.0;
    }
};

/** Abstract replacement policy. One instance serves one cache. */
class ReplacementPolicy
{
  public:
    /** Returned by findVictim to bypass the fill entirely. */
    static constexpr uint32_t kBypass =
        std::numeric_limits<uint32_t>::max();

    virtual ~ReplacementPolicy() = default;

    /**
     * Size metadata for the given geometry. Called once at cache
     * construction, and again through reset() when the cache is
     * flushed; bind() must therefore fully (re)initialize every
     * piece of policy state it owns.
     */
    virtual void bind(const CacheGeometry &geom) = 0;

    /**
     * Drop all replacement metadata, as after a full cache flush:
     * no line the policy has seen is resident any more. The
     * default re-binds, which suffices for policies whose bind()
     * re-initializes everything; policies with constructor-seeded
     * state (RNG streams, duel counters) override this to restore
     * their exact post-construction behaviour.
     */
    virtual void reset(const CacheGeometry &geom) { bind(geom); }

    /**
     * Choose a victim way for a fill into ctx.set. The cache fills
     * invalid ways itself; this is only called when the set is
     * full, so every way holds a valid line. @p line_addrs is the
     * set's line-address lane, one line-aligned byte address per
     * way, read in place from the cache's storage (no per-call
     * copy); policies needing more per-block state keep it in
     * their own metadata.
     * @return a way index, or kBypass to skip caching the line
     *         (only honoured for non-writeback fills).
     */
    virtual uint32_t
    findVictim(const AccessContext &ctx,
               std::span<const uint64_t> line_addrs) = 0;

    /**
     * Observe an access: called on every hit and on every fill
     * (after the victim was chosen and the block installed, with
     * ctx.way identifying the block).
     */
    virtual void onAccess(const AccessContext &ctx) = 0;

    /**
     * Observe an eviction of a valid block (not called for
     * bypasses). Default: ignore.
     */
    virtual void
    onEviction(uint32_t set, uint32_t way, const BlockView &block)
    {
        (void)set;
        (void)way;
        (void)block;
    }

    /**
     * Self-check hook for the verification harness: inspect the
     * policy's metadata for @p set (declared bit widths respected,
     * internal counters in range, consistency with the resident
     * @p blocks) and throw std::logic_error on any violation.
     * Called by the cache after every access to the set, but only
     * when verification is armed (RLR_VERIFY=1 or
     * Cache::setVerifyInvariants) — keep it cheap, it is still
     * O(ways) per access. Default: no checks.
     */
    virtual void
    verifyInvariants(uint32_t set,
                     std::span<const BlockView> blocks) const
    {
        (void)set;
        (void)blocks;
    }

    /**
     * Mount policy-specific statistics (learned parameters,
     * predictor state, training counters) under @p prefix in the
     * registry. The owning cache registers the shared entries
     * (name, storage overhead) itself; the default exposes
     * nothing extra.
     */
    virtual void
    describeStats(stats::Registry &reg, const std::string &prefix)
    {
        (void)reg;
        (void)prefix;
    }

    /**
     * Replacement priority of a resident line, in the policy's
     * native units (LRU: recency rank with 0 = LRU; RRIP family:
     * RRPV; RLR: the P_line sum). Purely observational — the
     * event log (src/obs/) records it on hits, fills, and
     * evictions. Default: 0 for policies without a natural
     * priority.
     */
    virtual uint64_t
    victimPriority(uint32_t set, uint32_t way) const
    {
        (void)set;
        (void)way;
        return 0;
    }

    /**
     * Reason code for the most recent findVictim() that returned
     * kBypass. Only read immediately after a bypassing
     * findVictim(); default: generic Policy.
     */
    virtual BypassReason bypassReason() const
    {
        return BypassReason::Policy;
    }

    /** Policy name used in experiment tables. */
    virtual std::string name() const = 0;

    /** @return true when the policy reads the program counter. */
    virtual bool usesPc() const { return false; }

    /** Metadata cost model (Table I). */
    virtual StorageOverhead overhead() const = 0;
};

} // namespace rlr::cache

#endif // RLR_CACHE_REPLACEMENT_HH
