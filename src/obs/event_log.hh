/**
 * @file
 * Decision-level event log for one cache: a fixed-capacity ring
 * buffer of fill / hit / eviction / bypass records captured at the
 * cache's replacement decision points, with per-victim metadata
 * (age, hit count, recency position, last access type, and the
 * policy's computed priority) that mirrors the paper's Fig. 4-7
 * feature statistics — but taken from the *production* simulator
 * instead of the offline python-equivalent pipeline.
 *
 * Cost model: the log is a cache::CacheObserver, attached to a
 * cache through Cache::setObservers; when detached the hot path
 * pays one empty-list check per decision point
 * (docs/OBSERVABILITY.md § Cost). When
 * attached, recording can be thinned to 1-in-N sets
 * (EventLogConfig::sample_sets); metadata shadows are still
 * maintained for every set so sampled events carry exact ages. A full ring overwrites the oldest events and counts them
 * as overwritten, so a bounded buffer can watch an unbounded run.
 */

#ifndef RLR_OBS_EVENT_LOG_HH
#define RLR_OBS_EVENT_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/observer.hh"
#include "stats/registry.hh"
#include "trace/record.hh"

namespace rlr::obs
{

/** What happened at a decision point. */
enum class EventKind : uint8_t
{
    /** A line was installed into an invalid way (no eviction). */
    Fill = 0,
    /** A lookup hit a resident line. */
    Hit,
    /** A valid line was evicted to make room for a fill. */
    Eviction,
    /** The fill was skipped entirely (policy or fill-control). */
    Bypass,
};

/** Number of distinct event kinds. */
inline constexpr size_t kNumEventKinds = 4;

/** @return short stable name ("fill", "hit", "evict", "bypass"). */
std::string_view eventKindName(EventKind kind);

/** @return short stable name of a bypass reason code. */
std::string_view bypassReasonName(cache::BypassReason reason);

/** Way value used for events with no resident way (bypasses). */
inline constexpr uint8_t kNoWay = 0xff;

/** One decision-point record. All fields are integers so event
 *  streams are bit-deterministic for a given seed. */
struct Event
{
    /** Ordinal of the triggering access at this cache (1-based). */
    uint64_t access_no = 0;
    /** Line-aligned address: the victim line for evictions, the
     *  accessed line otherwise. */
    uint64_t address = 0;
    /** Program counter of the triggering access (0 for WB). */
    uint64_t pc = 0;
    /** Policy priority: victim's for evictions, touched line's
     *  for hits/fills (RRPV for RRIP-family, rank for LRU, the
     *  P_line sum for RLR; 0 for policies without the hook). */
    uint64_t priority = 0;
    uint32_t set = 0;
    /** Victim age at eviction, in set-access units. */
    uint32_t victim_age = 0;
    /** Demand/prefetch hits the victim received since its fill. */
    uint32_t victim_hits = 0;
    uint8_t way = kNoWay;
    /** Victim recency rank among valid lines (0 = LRU). */
    uint8_t victim_recency = 0;
    uint8_t cpu = 0;
    EventKind kind = EventKind::Fill;
    /** Type of the triggering access. */
    trace::AccessType type = trace::AccessType::Load;
    /** Type of the victim's last access (evictions only). */
    trace::AccessType victim_last_type = trace::AccessType::Load;
    /** Why the fill was skipped (bypasses only). */
    cache::BypassReason reason = cache::BypassReason::None;

    bool operator==(const Event &) const = default;
};

/** Shape of one event log. */
struct EventLogConfig
{
    /** Ring capacity in events; the log keeps the newest. */
    uint32_t capacity = 65536;
    /** Record events for 1-in-N sets (1 = every set). */
    uint32_t sample_sets = 1;
};

/** Plain-data form of a log (export, embedding in RunResult). */
struct EventLogData
{
    EventLogConfig config;
    /** Associativity of the logged cache (recency bucket count). */
    uint32_t ways = 0;
    /** Events pushed into the ring (incl. later overwritten). */
    uint64_t recorded = 0;
    /** Events lost to ring wraparound. */
    uint64_t overwritten = 0;
    /** Events skipped by 1-in-N set sampling. */
    uint64_t sampled_out = 0;
    /** Per-set access / miss counts (heatmap source). */
    std::vector<uint64_t> set_accesses;
    std::vector<uint64_t> set_misses;
    /** Surviving events, oldest first. */
    std::vector<Event> events;

    bool empty() const { return recorded == 0; }
};

/**
 * The live event log. A cache drives it through the
 * cache::CacheObserver hooks; the cache owns the decision of
 * *when* to call (only while the log is attached), the log owns
 * sampling, metadata shadows, and the ring itself.
 */
class EventLog final : public cache::CacheObserver
{
  public:
    explicit EventLog(EventLogConfig config = {});

    /** Size the per-set/per-line shadows to @p geom. */
    void attach(const cache::CacheGeometry &geom,
                cache::LineCounter valid_lines) override;

    /** Count one access to @p set (hits and misses alike). */
    void onAccess(uint32_t set, const cache::MemRequest &req,
                  bool hit) override;

    /** A lookup hit (set, way), after its onAccess(). */
    void onHit(uint32_t set, uint32_t way,
               const cache::MemRequest &req,
               uint64_t priority) override;

    /** A line was installed into (set, way). */
    void onFill(uint32_t set, uint32_t way,
                const cache::MemRequest &req,
                uint64_t priority) override;

    /**
     * A valid line is about to be evicted from (set, way); must be
     * called before onFill() overwrites the shadow metadata.
     * @p priority is the policy's computed priority of the victim.
     */
    void onEviction(uint32_t set, uint32_t way,
                    uint64_t victim_address,
                    const cache::MemRequest &incoming,
                    uint64_t priority) override;

    /** The fill of @p req into @p set was skipped. */
    void onBypass(uint32_t set, const cache::MemRequest &req,
                  cache::BypassReason reason) override;

    /** Drop all events, counters, and shadow state. */
    void reset() override;

    const EventLogConfig &config() const { return config_; }
    uint64_t recorded() const { return recorded_; }
    uint64_t overwritten() const { return overwritten_; }
    uint64_t sampledOut() const { return sampled_out_; }
    /** Events currently resident in the ring. */
    size_t size() const { return ring_.size(); }

    /** Freeze into plain data (events oldest-first). */
    EventLogData data() const;

    /** Mount the log's counters under "<prefix>.events". */
    void describeStats(stats::Registry &reg,
                       const std::string &prefix) override;

  private:
    /** Per-line shadow metadata, maintained for every set. */
    struct LineShadow
    {
        /** Set-access ordinal of the last touch (fill or hit). */
        uint64_t last_touch = 0;
        uint32_t hits = 0;
        trace::AccessType last_type = trace::AccessType::Load;
        bool valid = false;
    };

    bool sampled(uint32_t set) const
    {
        return config_.sample_sets <= 1 ||
               set % config_.sample_sets == 0;
    }

    void push(const Event &ev);
    LineShadow &shadow(uint32_t set, uint32_t way);

    EventLogConfig config_;
    uint32_t num_sets_ = 0;
    uint32_t ways_ = 0;

    uint64_t access_no_ = 0;
    uint64_t recorded_ = 0;
    uint64_t overwritten_ = 0;
    uint64_t sampled_out_ = 0;

    std::vector<LineShadow> shadows_;
    /** Per-set access ordinals (age computation) and heatmap. */
    std::vector<uint64_t> set_accesses_;
    std::vector<uint64_t> set_misses_;

    /** Ring storage; next_ is the overwrite cursor once full. */
    std::vector<Event> ring_;
    size_t next_ = 0;
};

} // namespace rlr::obs

#endif // RLR_OBS_EVENT_LOG_HH
