/**
 * @file
 * Set-associative, write-back, write-allocate, non-blocking cache
 * with pluggable replacement policy and prefetcher.
 *
 * There is one access path for every replacement policy: policy
 * calls are plain virtual calls and every observability hook is a
 * loop over the attached CacheObserver list (cache/observer.hh),
 * skipped by one emptiness check when none is attached. Compiling
 * the body per policy type or per observer state measures at parity
 * with this single body on whole-System runs, so the single body
 * is the design (docs/ARCHITECTURE.md). Per-set metadata is
 * stored as struct-of-arrays lanes so tag lookups and victim
 * scans vectorize (docs/PERFORMANCE.md).
 */

#ifndef RLR_CACHE_CACHE_HH
#define RLR_CACHE_CACHE_HH

#include <array>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "cache/geometry.hh"
#include "cache/memory_interface.hh"
#include "cache/observer.hh"
#include "cache/prefetcher.hh"
#include "cache/replacement.hh"
#include "stats/registry.hh"

namespace rlr::cache
{

/**
 * One cache level's event counters, as plain integers. The
 * per-type arrays are indexed by trace::AccessType.
 */
struct CacheCounters
{
    std::array<uint64_t, trace::kNumAccessTypes> access{};
    std::array<uint64_t, trace::kNumAccessTypes> hit{};
    std::array<uint64_t, trace::kNumAccessTypes> miss{};
    uint64_t bypasses = 0;
    uint64_t evictions = 0;
    uint64_t mshr_merges = 0;
    uint64_t mshr_stalls = 0;
    uint64_t pf_fills_skipped = 0;
    uint64_t prefetches_issued = 0;
    uint64_t wb_bypass_denied = 0;
    uint64_t writebacks_issued = 0;

    /**
     * Call @p fn(name, counter) for every counter, in export
     * order: string order of the names ("LD_access" ... "WB_miss",
     * then "bypasses" ... "writebacks_issued").
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        using trace::AccessType;
        static constexpr AccessType kTypes[] = {
            AccessType::Load, AccessType::Prefetch, AccessType::Rfo,
            AccessType::Writeback};
        static constexpr const char *kNames[][3] = {
            {"LD_access", "LD_hit", "LD_miss"},
            {"PF_access", "PF_hit", "PF_miss"},
            {"RFO_access", "RFO_hit", "RFO_miss"},
            {"WB_access", "WB_hit", "WB_miss"}};
        for (size_t k = 0; k < std::size(kTypes); ++k) {
            const auto i = static_cast<size_t>(kTypes[k]);
            fn(kNames[k][0], access[i]);
            fn(kNames[k][1], hit[i]);
            fn(kNames[k][2], miss[i]);
        }
        fn("bypasses", bypasses);
        fn("evictions", evictions);
        fn("mshr_merges", mshr_merges);
        fn("mshr_stalls", mshr_stalls);
        fn("pf_fills_skipped", pf_fills_skipped);
        fn("prefetches_issued", prefetches_issued);
        fn("wb_bypass_denied", wb_bypass_denied);
        fn("writebacks_issued", writebacks_issued);
    }
};

/**
 * Internal-consistency check over the per-type access counters:
 * for each type T in {LD, RFO, PF, WB},
 * T_hit + T_miss == T_access must hold.
 * @return "" when consistent, else a description of the first
 *         violated identity
 */
std::string accessConsistencyError(const CacheCounters &c);

/**
 * One cache level.
 *
 * Timing: lookups cost `geometry.latency`; misses recurse into the
 * next level and the block is tagged with its data-ready cycle.
 * MSHR pressure delays new misses once the outstanding-miss count
 * reaches `geometry.mshrs`.
 */
class Cache : public MemoryLevel
{
  public:
    /**
     * @param geom shape and timing
     * @param policy replacement policy (owned)
     * @param next next level (borrowed; outlives this cache)
     */
    Cache(CacheGeometry geom,
          std::unique_ptr<ReplacementPolicy> policy,
          MemoryLevel *next);

    /** Attach a prefetcher (owned). May be null. */
    void setPrefetcher(std::unique_ptr<Prefetcher> prefetcher);

    /**
     * L1 data caches take ownership on RFO: stores dirty the line
     * at this level. Lower levels leave RFO fills clean and only
     * become dirty via writebacks.
     */
    void setWritesOnRfo(bool v) { writes_on_rfo_ = v; }

    /**
     * Attach @p observers (borrowed; they outlive this cache or
     * are detached first), replacing any attached before; an empty
     * list detaches. Each is bound to this cache's geometry and
     * driven, in list order, at every access / hit / fill /
     * eviction / bypass, on reset and on describeStats.
     */
    void setObservers(std::vector<CacheObserver *> observers);

    /**
     * Arm (or disarm) per-access invariant checking: after every
     * access, merged in-flight accesses included, the replacement
     * policy's verifyInvariants hook runs on the touched set and
     * the per-type access counters are checked for hit+miss ==
     * accesses consistency; violations throw std::logic_error.
     * Defaults to the RLR_VERIFY environment variable (set and not
     * "0"). Debug/fuzzing aid — adds O(ways) work per access.
     */
    void setVerifyInvariants(bool v) { verify_ = v; }
    bool verifyingInvariants() const { return verify_; }

    /**
     * Does nothing. Kept only because bench/e2e/sim_e2e_trace.cc,
     * which must build unchanged, still calls it; it goes when
     * that mirror is replaced (ROADMAP item 4).
     */
    void setProfiled(bool) {}

    /**
     * Minimum prefetch confidence required to install a prefetch
     * fill at THIS level. Lower-confidence prefetched data still
     * flows to the requester and fills levels below (KPC-style
     * fill-level control: low-confidence prefetches skip the L2
     * but land in the LLC).
     */
    void setPrefetchFillThreshold(float t) { pf_fill_threshold_ = t; }

    uint64_t access(const MemRequest &req, uint64_t now) override;

    const std::string &name() const override { return geom_.name; }

    const CacheGeometry &geometry() const { return geom_; }
    ReplacementPolicy *policy() { return policy_.get(); }

    /** @return true when the line is present (tests/diagnostics). */
    bool probe(uint64_t address) const;

    /** Read-only views of a set's blocks (tests/diagnostics). */
    std::vector<BlockView> setContents(uint32_t set) const;

    /** Live counters (tests and diagnostics). */
    CacheCounters &counters() { return counters_; }
    const CacheCounters &counters() const { return counters_; }

    /**
     * Bind this cache's statistics under @p prefix in the
     * registry: every counter of CacheCounters (zeros included),
     * derived demand totals and hit rate, the replacement
     * policy's storage overhead and policy-specific stats (under
     * "<prefix>.policy"), and any attached prefetcher's stats
     * (under "<prefix>.prefetcher").
     */
    void describeStats(stats::Registry &reg,
                       const std::string &prefix);

    /** Zero statistics (end of warmup); cache contents persist. */
    void resetStats();

    /**
     * Invalidate all blocks, drain the MSHRs, clear stats, and
     * reset the replacement policy's metadata (no line it has
     * seen is resident any more).
     */
    void flush();

    /** Demand (LD+RFO) access/hit/miss totals. */
    uint64_t demandAccesses() const;
    uint64_t demandHits() const;
    uint64_t demandMisses() const;

    /** Currently valid lines (epoch occupancy sampling). */
    uint64_t validLines() const;

  private:
    /** lookup() miss marker (no way holds the tag). */
    static constexpr uint32_t kNoWay =
        std::numeric_limits<uint32_t>::max();

    /** Flat SoA index of (set, way). */
    size_t
    idx(uint32_t set, uint32_t way) const
    {
        return static_cast<size_t>(set) * geom_.ways + way;
    }

    /** @return hit way for (set, tag) or kNoWay. */
    uint32_t lookup(uint32_t set, uint64_t tag) const;

    /**
     * Install a line, evicting if necessary.
     * @return false when the fill was bypassed by the policy.
     */
    bool fill(const MemRequest &req, uint64_t ready, bool dirty);

    /**
     * Enforce MSHR capacity: may advance @p now to the completion
     * of the earliest outstanding miss (freeing its MSHR). The
     * caller reserves the freed entry with the final, post-stall
     * completion time via trackMiss().
     */
    uint64_t mshrAdmit(uint64_t now);

    /** Record an in-flight miss completing at @p ready. */
    void trackMiss(uint64_t ready) { inflight_.push(ready); }

    /** Run the armed invariant checks on @p set (throws). */
    void runVerify(uint32_t set) const;

    /** Let the prefetcher react to a demand access. */
    void runPrefetcher(const MemRequest &req, bool hit,
                       uint64_t now);

    /** Bump the per-type access counters and tell the observers
     *  about the access. */
    void
    countAccess(uint32_t set, const MemRequest &req, bool hit)
    {
        const auto i = static_cast<size_t>(req.type);
        ++counters_.access[i];
        ++(hit ? counters_.hit : counters_.miss)[i];
        for (CacheObserver *o : observers_)
            o->onAccess(set, req, hit);
    }

    /** Tell the observers about a skipped fill. */
    void
    notifyBypass(uint32_t set, const MemRequest &req,
                 BypassReason reason)
    {
        for (CacheObserver *o : observers_)
            o->onBypass(set, req, reason);
    }

    CacheGeometry geom_;
    std::unique_ptr<ReplacementPolicy> policy_;
    MemoryLevel *next_;
    std::unique_ptr<Prefetcher> prefetcher_;
    /** Borrowed observers; empty = detached (every hook site is
     *  skipped by its emptiness check). */
    std::vector<CacheObserver *> observers_;
    bool writes_on_rfo_ = false;
    float pf_fill_threshold_ = 0.0f;
    /** Invariant checking armed (RLR_VERIFY / fuzz harness). */
    bool verify_ = false;

    /**
     * Per-line metadata as struct-of-arrays lanes, indexed by
     * idx(set, way). Separating the one-byte flags from the
     * 8-byte lanes keeps the lookup scan reading only the lanes
     * it needs (valid + tag: 9 bytes/way instead of a 40-byte
     * Block record) and lets the compiler vectorize it.
     */
    std::vector<uint8_t> valid_;
    std::vector<uint8_t> dirty_;
    std::vector<uint8_t> prefetch_;
    std::vector<uint64_t> tag_;
    /** Line-aligned byte address. */
    std::vector<uint64_t> addr_;
    /** Cycle at which the block's data is present. */
    std::vector<uint64_t> ready_at_;

    /** Reusable findVictim() argument; sized to geom_.ways. */
    std::vector<BlockView> view_scratch_;

    /** Data-ready cycles of in-flight misses (MSHR accounting). */
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<>>
        inflight_;
    /** Guard against recursive prefetch issue. */
    bool in_prefetch_ = false;
    /** Reusable prefetcher output, cleared before each observe(). */
    std::vector<PrefetchRequest> pf_proposals_;

    CacheCounters counters_;
};

} // namespace rlr::cache

#endif // RLR_CACHE_CACHE_HH
