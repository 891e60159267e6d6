/**
 * @file
 * The one observation seam of cache::Cache. Trace capture, the
 * decision-level event log and the epoch sampler (src/obs/) all
 * implement CacheObserver and attach through
 * Cache::setObservers(); the cache calls them at its decision
 * points in attachment order.
 *
 * Header-only, so an observer library never has to link the
 * cache. Cost model: with no observer attached each hook site is
 * one predicted empty-list branch (docs/OBSERVABILITY.md § Cost).
 */

#ifndef RLR_CACHE_OBSERVER_HH
#define RLR_CACHE_OBSERVER_HH

#include <cstdint>
#include <string>

#include "cache/geometry.hh"
#include "cache/memory_interface.hh"
#include "cache/replacement.hh"
#include "stats/registry.hh"
#include "trace/record.hh"
#include "trace/trace_io.hh"

namespace rlr::cache
{

/**
 * Valid-line count of the observed cache, queried on demand (epoch
 * occupancy). A plain function pointer over the cache, so the seam
 * needs no type-erased callable.
 */
struct LineCounter
{
    uint64_t (*count)(const void *cache) = nullptr;
    const void *cache = nullptr;

    uint64_t operator()() const { return count ? count(cache) : 0; }
};

/**
 * Observer of one cache's accesses and replacement decisions.
 * Every hook defaults to a no-op.
 */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;

    /** Bound to a cache of shape @p geom (once, on attach). */
    virtual void attach(const CacheGeometry & /*geom*/,
                        LineCounter /*valid_lines*/) {}

    /**
     * One counted access to @p set. Fires once per access, before
     * the policy sees it; @p hit is false for misses and for
     * accesses merged into an in-flight miss.
     */
    virtual void onAccess(uint32_t /*set*/,
                          const MemRequest & /*req*/, bool /*hit*/) {}

    /** A hit on (set, way); @p priority is the line's standing
     *  before the policy updates it (e.g. its RRPV). */
    virtual void onHit(uint32_t /*set*/, uint32_t /*way*/,
                       const MemRequest & /*req*/,
                       uint64_t /*priority*/) {}

    /** A line was installed into (set, way); @p priority is its
     *  post-insertion standing (e.g. the inserted RRPV). */
    virtual void onFill(uint32_t /*set*/, uint32_t /*way*/,
                        const MemRequest & /*req*/,
                        uint64_t /*priority*/) {}

    /**
     * The valid line at @p victim_address in (set, way) is about to
     * be evicted for @p incoming; fires before the matching
     * onFill(), while the policy's victim metadata is live.
     */
    virtual void onEviction(uint32_t /*set*/, uint32_t /*way*/,
                            uint64_t /*victim_address*/,
                            const MemRequest & /*incoming*/,
                            uint64_t /*priority*/) {}

    /** The fill of @p req into @p set was skipped. */
    virtual void onBypass(uint32_t /*set*/,
                          const MemRequest & /*req*/,
                          BypassReason /*reason*/) {}

    /** The cache's statistics were reset (end of warmup, flush). */
    virtual void reset() {}

    /** Mount this observer's statistics below the observed cache's
     *  registry @p prefix (e.g. "llc"). */
    virtual void describeStats(stats::Registry & /*reg*/,
                               const std::string & /*prefix*/) {}
};

/**
 * Records every counted access into an LlcTrace: the LLC stream
 * that RLR training, the Belady oracle and the offline victim
 * analyses (Figs. 4-7) replay. reset() drops the warmup prefix.
 */
class TraceCapture final : public CacheObserver
{
  public:
    void
    onAccess(uint32_t, const MemRequest &req, bool) override
    {
        trace::LlcAccess rec;
        rec.pc = req.pc;
        rec.address = req.address;
        rec.type = req.type;
        rec.cpu = req.cpu;
        trace_.append(rec);
    }

    void reset() override { trace_.clear(); }

    const trace::LlcTrace &trace() const { return trace_; }

  private:
    trace::LlcTrace trace_;
};

} // namespace rlr::cache

#endif // RLR_CACHE_OBSERVER_HH
