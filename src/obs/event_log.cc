#include "obs/event_log.hh"

#include "util/logging.hh"

namespace rlr::obs
{

std::string_view
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Fill: return "fill";
      case EventKind::Hit: return "hit";
      case EventKind::Eviction: return "evict";
      case EventKind::Bypass: return "bypass";
    }
    return "?";
}

std::string_view
bypassReasonName(cache::BypassReason reason)
{
    switch (reason) {
      case cache::BypassReason::None: return "none";
      case cache::BypassReason::Policy: return "policy";
      case cache::BypassReason::AgeProtected:
        return "age_protected";
      case cache::BypassReason::LowConfidencePrefetch:
        return "low_confidence_pf";
    }
    return "?";
}

EventLog::EventLog(EventLogConfig config) : config_(config)
{
    util::ensure(config_.capacity >= 1, "EventLog: zero capacity");
    util::ensure(config_.sample_sets >= 1,
                 "EventLog: zero sample_sets");
    ring_.reserve(config_.capacity);
}

void
EventLog::attach(const cache::CacheGeometry &geom,
                 cache::LineCounter)
{
    num_sets_ = geom.numSets();
    ways_ = geom.ways;
    reset();
}

void
EventLog::reset()
{
    shadows_.assign(static_cast<size_t>(num_sets_) * ways_,
                    LineShadow{});
    set_accesses_.assign(num_sets_, 0);
    set_misses_.assign(num_sets_, 0);
    ring_.clear();
    next_ = 0;
    access_no_ = 0;
    recorded_ = 0;
    overwritten_ = 0;
    sampled_out_ = 0;
}

EventLog::LineShadow &
EventLog::shadow(uint32_t set, uint32_t way)
{
    return shadows_[static_cast<size_t>(set) * ways_ + way];
}

void
EventLog::push(const Event &ev)
{
    ++recorded_;
    if (ring_.size() < config_.capacity) {
        ring_.push_back(ev);
        return;
    }
    // Full: overwrite the oldest event (next_ is the ring cursor).
    ring_[next_] = ev;
    next_ = (next_ + 1) % ring_.size();
    ++overwritten_;
}

void
EventLog::onAccess(uint32_t set, const cache::MemRequest &, bool hit)
{
    ++access_no_;
    ++set_accesses_[set];
    if (!hit)
        ++set_misses_[set];
}

void
EventLog::onHit(uint32_t set, uint32_t way,
                const cache::MemRequest &req, uint64_t priority)
{
    LineShadow &sh = shadow(set, way);
    sh.valid = true;
    ++sh.hits;
    sh.last_touch = set_accesses_[set];
    sh.last_type = req.type;

    if (!sampled(set)) {
        ++sampled_out_;
        return;
    }
    Event ev;
    ev.access_no = access_no_;
    ev.address = cache::CacheGeometry::lineAddress(req.address);
    ev.pc = req.pc;
    ev.priority = priority;
    ev.set = set;
    ev.way = static_cast<uint8_t>(way);
    ev.cpu = req.cpu;
    ev.kind = EventKind::Hit;
    ev.type = req.type;
    push(ev);
}

void
EventLog::onFill(uint32_t set, uint32_t way,
                 const cache::MemRequest &req, uint64_t priority)
{
    LineShadow &sh = shadow(set, way);
    sh.valid = true;
    sh.hits = 0;
    sh.last_touch = set_accesses_[set];
    sh.last_type = req.type;

    if (!sampled(set)) {
        ++sampled_out_;
        return;
    }
    Event ev;
    ev.access_no = access_no_;
    ev.address = cache::CacheGeometry::lineAddress(req.address);
    ev.pc = req.pc;
    ev.priority = priority;
    ev.set = set;
    ev.way = static_cast<uint8_t>(way);
    ev.cpu = req.cpu;
    ev.kind = EventKind::Fill;
    ev.type = req.type;
    push(ev);
}

void
EventLog::onEviction(uint32_t set, uint32_t way,
                     uint64_t victim_address,
                     const cache::MemRequest &incoming,
                     uint64_t priority)
{
    const LineShadow &victim = shadow(set, way);
    uint8_t recency = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (w == way)
            continue;
        const LineShadow &other = shadow(set, w);
        if (other.valid && other.last_touch < victim.last_touch)
            ++recency;
    }

    if (!sampled(set)) {
        ++sampled_out_;
        return;
    }
    Event ev;
    ev.access_no = access_no_;
    ev.address =
        cache::CacheGeometry::lineAddress(victim_address);
    ev.pc = incoming.pc;
    ev.priority = priority;
    ev.set = set;
    ev.way = static_cast<uint8_t>(way);
    ev.cpu = incoming.cpu;
    ev.kind = EventKind::Eviction;
    ev.type = incoming.type;
    ev.victim_age = static_cast<uint32_t>(
        set_accesses_[set] - victim.last_touch);
    ev.victim_hits = victim.hits;
    ev.victim_recency = recency;
    ev.victim_last_type = victim.last_type;
    push(ev);
}

void
EventLog::onBypass(uint32_t set, const cache::MemRequest &req,
                   cache::BypassReason reason)
{
    if (!sampled(set)) {
        ++sampled_out_;
        return;
    }
    Event ev;
    ev.access_no = access_no_;
    ev.address = cache::CacheGeometry::lineAddress(req.address);
    ev.pc = req.pc;
    ev.set = set;
    ev.cpu = req.cpu;
    ev.kind = EventKind::Bypass;
    ev.type = req.type;
    ev.reason = reason;
    push(ev);
}

EventLogData
EventLog::data() const
{
    EventLogData d;
    d.config = config_;
    d.ways = ways_;
    d.recorded = recorded_;
    d.overwritten = overwritten_;
    d.sampled_out = sampled_out_;
    d.set_accesses = set_accesses_;
    d.set_misses = set_misses_;
    d.events.reserve(ring_.size());
    // Oldest first: once the ring has wrapped, next_ points at the
    // oldest surviving event.
    if (ring_.size() < config_.capacity) {
        d.events = ring_;
    } else {
        for (size_t i = 0; i < ring_.size(); ++i)
            d.events.push_back(
                ring_[(next_ + i) % ring_.size()]);
    }
    return d;
}

void
EventLog::describeStats(stats::Registry &reg,
                        const std::string &cache_prefix)
{
    const std::string prefix = cache_prefix + ".events";
    reg.bindCounter(
        prefix + ".recorded", [this] { return recorded_; },
        "decision events pushed into the ring buffer");
    reg.bindCounter(
        prefix + ".overwritten", [this] { return overwritten_; },
        "events lost to ring wraparound");
    reg.bindCounter(
        prefix + ".sampled_out", [this] { return sampled_out_; },
        "events skipped by 1-in-N set sampling");
    reg.bindCounter(
        prefix + ".resident",
        [this] { return static_cast<uint64_t>(ring_.size()); },
        "events currently resident in the ring");
}

} // namespace rlr::obs
