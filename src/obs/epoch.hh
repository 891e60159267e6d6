/**
 * @file
 * Epoch time-series sampler: aggregates a cache's access stream
 * into fixed-length epochs (counted in accesses) and exposes the
 * per-epoch series through the stats::Registry under
 * "<prefix>.e<k>_*" paths, so time-resolved behaviour (miss-rate
 * shifts, occupancy ramps, RLR reuse-distance adaptation, victim
 * priority drift) flows through the existing JSON snapshot export
 * and tools/report without any new output channel.
 *
 * Alongside the epoch series the sampler keeps whole-run per-set
 * access/miss heatmap counters (registered as distributions with
 * one bucket per set) and a victim-priority distribution.
 *
 * Like the event log, the sampler is a cache::CacheObserver
 * borrowed by a cache and costs only an empty-list check per access
 * when detached.
 */

#ifndef RLR_OBS_EPOCH_HH
#define RLR_OBS_EPOCH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/observer.hh"
#include "stats/registry.hh"
#include "stats/stats.hh"
#include "trace/record.hh"
#include "util/histogram.hh"

namespace rlr::obs
{

/** One aggregated epoch (also the live accumulator). */
struct EpochSample
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t demand_accesses = 0;
    uint64_t demand_misses = 0;
    uint64_t evictions = 0;
    uint64_t bypasses = 0;
    /** Sum of victim priorities (avg = sum / evictions). */
    uint64_t victim_priority_sum = 0;
    /** Scalar provider values sampled at the epoch boundary. */
    uint64_t occupancy = 0;
    uint64_t scalar = 0;

    bool empty() const { return accesses == 0; }
};

/** Epoch time-series sampler for one cache. */
class EpochSampler final : public cache::CacheObserver
{
  public:
    /** Pull-style provider sampled at every epoch boundary. */
    using Provider = std::function<uint64_t()>;

    /** @param length epoch length in cache accesses (>= 1) */
    explicit EpochSampler(uint64_t length);

    /**
     * Size the heatmap counters to @p geom; @p valid_lines becomes
     * the occupancy sampled at epoch boundaries and at finish().
     */
    void attach(const cache::CacheGeometry &geom,
                cache::LineCounter valid_lines) override;

    /**
     * Optional policy scalar tracked per epoch (e.g. RLR's
     * predicted reuse distance). @p name becomes the exported
     * counter suffix ("e<k>_<name>").
     */
    void setScalarProvider(std::string name, Provider p);

    /** One access to @p set (hit or miss, any type). */
    void onAccess(uint32_t set, const cache::MemRequest &req,
                  bool hit) override;

    /** One eviction with the victim's policy priority. */
    void onEviction(uint32_t set, uint32_t way,
                    uint64_t victim_address,
                    const cache::MemRequest &incoming,
                    uint64_t priority) override;

    /** One bypassed fill. */
    void onBypass(uint32_t set, const cache::MemRequest &req,
                  cache::BypassReason reason) override;

    /**
     * Close the current partial epoch (if any) so it appears in
     * the series. Idempotent; called automatically by
     * describeStats so end-of-run snapshots include the tail.
     */
    void finish();

    /** Drop all epochs and counters (end of warmup). */
    void reset() override;

    uint64_t epochLength() const { return length_; }
    /** Completed epochs (incl. a finished partial tail). */
    uint64_t epochs() const { return epochs_; }

    /** Live view of the accumulating (not yet closed) epoch. */
    const EpochSample &current() const { return cur_; }

    /**
     * Mount the series under "<prefix>.epoch" (written <e> below):
     * "<e>.length", "<e>.count", per-epoch counters
     * "<e>.e<k>_{accesses,misses,demand_accesses,demand_misses,
     * evictions,bypasses,victim_priority_sum,occupancy[,<scalar>]}",
     * the whole-run victim-priority distribution
     * "<e>.victim_priority", and the per-set heatmap distributions
     * "<e>.set_accesses" / "<e>.set_misses" (bucket i = set i).
     */
    void describeStats(stats::Registry &reg,
                       const std::string &prefix) override;

  private:
    void closeEpoch();

    uint64_t length_;
    uint64_t total_accesses_ = 0;
    uint64_t epochs_ = 0;
    EpochSample cur_;

    cache::LineCounter occupancy_;
    std::string scalar_name_;
    Provider scalar_;

    /** Closed epochs as named counters ("e<k>_accesses", ...). */
    stats::StatSet series_{"epoch"};

    util::Histogram victim_priority_{64, 1};
    util::Histogram heat_accesses_{1, 1};
    util::Histogram heat_misses_{1, 1};
};

} // namespace rlr::obs

#endif // RLR_OBS_EPOCH_HH
