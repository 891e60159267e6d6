#include "cache/cache.hh"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/logging.hh"

namespace rlr::cache
{

namespace
{

constexpr auto kLoad = static_cast<size_t>(trace::AccessType::Load);
constexpr auto kRfo = static_cast<size_t>(trace::AccessType::Rfo);

bool
verifyEnvDefault()
{
    const char *v = std::getenv("RLR_VERIFY");
    return v != nullptr && std::string_view(v) != "0";
}

} // namespace

std::string
accessConsistencyError(const CacheCounters &c)
{
    for (size_t i = 0; i < trace::kNumAccessTypes; ++i) {
        if (c.hit[i] + c.miss[i] != c.access[i]) {
            const std::string_view t =
                trace::accessTypeName(static_cast<trace::AccessType>(i));
            return util::format(
                "{}_hit ({}) + {}_miss ({}) != {}_access ({})", t,
                c.hit[i], t, c.miss[i], t, c.access[i]);
        }
    }
    return "";
}

Cache::Cache(CacheGeometry geom,
             std::unique_ptr<ReplacementPolicy> policy,
             MemoryLevel *next)
    : geom_(std::move(geom)), policy_(std::move(policy)),
      next_(next), verify_(verifyEnvDefault())
{
    geom_.validate();
    util::ensure(policy_ != nullptr, "Cache: null policy");
    util::ensure(next_ != nullptr, "Cache: null next level");
    const size_t lines =
        static_cast<size_t>(geom_.numSets()) * geom_.ways;
    valid_.assign(lines, 0);
    dirty_.assign(lines, 0);
    prefetch_.assign(lines, 0);
    tag_.assign(lines, 0);
    addr_.assign(lines, 0);
    ready_at_.assign(lines, 0);
    view_scratch_.resize(geom_.ways);
    policy_->bind(geom_);
}

void
Cache::setPrefetcher(std::unique_ptr<Prefetcher> prefetcher)
{
    prefetcher_ = std::move(prefetcher);
    if (prefetcher_)
        prefetcher_->bind(geom_);
}

void
Cache::setObservers(std::vector<CacheObserver *> observers)
{
    observers_ = std::move(observers);
    const LineCounter valid_lines{
        [](const void *c) {
            return static_cast<const Cache *>(c)->validLines();
        },
        this};
    for (CacheObserver *o : observers_)
        o->attach(geom_, valid_lines);
}

uint32_t
Cache::lookup(uint32_t set, uint64_t tag) const
{
    const size_t base = static_cast<size_t>(set) * geom_.ways;
    const uint32_t ways = geom_.ways;
    // Branchless scan over the valid + tag lanes: no early exit,
    // so the loop vectorizes and runs in constant time per set.
    uint32_t found = kNoWay;
    for (uint32_t w = 0; w < ways; ++w) {
        const bool match =
            (valid_[base + w] != 0) & (tag_[base + w] == tag);
        found = match ? w : found;
    }
    return found;
}

uint64_t
Cache::mshrAdmit(uint64_t now)
{
    while (!inflight_.empty() && inflight_.top() <= now)
        inflight_.pop();
    if (inflight_.size() >= geom_.mshrs) {
        // All MSHRs busy: the request waits for the earliest
        // outstanding miss to complete.
        now = std::max(now, inflight_.top());
        inflight_.pop();
        ++counters_.mshr_stalls;
    }
    return now;
}

void
Cache::runPrefetcher(const MemRequest &req, bool hit, uint64_t now)
{
    if (!prefetcher_ || in_prefetch_)
        return;
    // Reusing one buffer is safe: in_prefetch_ keeps the access(pf)
    // below from re-entering this cache's runPrefetcher while the
    // loop still reads it.
    pf_proposals_.clear();
    prefetcher_->observe(req.pc, req.address, hit, pf_proposals_);
    if (pf_proposals_.empty())
        return;

    in_prefetch_ = true;
    for (const auto &p : pf_proposals_) {
        const uint64_t line = CacheGeometry::lineAddress(p.address);
        const uint32_t set = geom_.setIndex(line);
        if (lookup(set, geom_.tag(line)) != kNoWay)
            continue; // already present or in flight
        MemRequest pf;
        pf.address = line;
        pf.pc = req.pc;
        pf.type = trace::AccessType::Prefetch;
        pf.cpu = req.cpu;
        pf.pf_confidence = static_cast<float>(p.confidence);
        ++counters_.prefetches_issued;
        access(pf, now);
    }
    in_prefetch_ = false;
}

uint64_t
Cache::access(const MemRequest &req, uint64_t now)
{
    now += geom_.latency;
    const uint64_t line = CacheGeometry::lineAddress(req.address);
    const uint64_t tag = geom_.tag(line);
    const uint32_t set = geom_.setIndex(line);

    const uint32_t hit_way = lookup(set, tag);
    const bool demand = trace::isDemand(req.type);

    if (hit_way != kNoWay) {
        const size_t i = idx(set, hit_way);
        const bool merged = ready_at_[i] > now;
        if (demand)
            prefetch_[i] = 0;
        if (req.type == trace::AccessType::Writeback ||
            (writes_on_rfo_ && req.type == trace::AccessType::Rfo)) {
            dirty_[i] = 1;
        }
        if (merged) {
            // The line is still in flight: this access merges into
            // the outstanding MSHR and completes with it.
            countAccess(set, req, false);
            ++counters_.mshr_merges;
            if (demand)
                runPrefetcher(req, false, now);
            if (verify_)
                runVerify(set);
            return std::max(now, ready_at_[i]);
        }
        countAccess(set, req, true);
        if (!observers_.empty()) {
            // Pre-update priority: the standing the line had when
            // it was hit (e.g. its RRPV before promotion).
            const uint64_t prio =
                policy_->victimPriority(set, hit_way);
            for (CacheObserver *o : observers_)
                o->onHit(set, hit_way, req, prio);
        }
        AccessContext ctx;
        ctx.cpu = req.cpu;
        ctx.set = set;
        ctx.way = hit_way;
        ctx.full_addr = req.address;
        ctx.pc = req.pc;
        ctx.type = req.type;
        ctx.hit = true;
        policy_->onAccess(ctx);
        if (demand)
            runPrefetcher(req, true, now);
        if (verify_)
            runVerify(set);
        return now;
    }

    // Miss.
    countAccess(set, req, false);

    if (req.type == trace::AccessType::Writeback) {
        // Write-allocate on writeback: the entire line is being
        // written, so no fetch from the next level is required.
        fill(req, now, /*dirty=*/true);
        if (verify_)
            runVerify(set);
        return now;
    }

    const uint64_t issue = now;
    uint64_t ready = next_->access(req, issue);
    ready = std::max(ready, issue);
    // MSHR reservation carries the final (post-stall) completion
    // time: the entry frees exactly when the fill's data arrives,
    // not at the pre-stall estimate.
    const uint64_t start = mshrAdmit(issue);
    ready += start - issue;
    trackMiss(ready);

    // KPC-style fill-level control: low-confidence prefetches are
    // not installed at this level (they still filled the levels
    // below via the recursive miss path).
    const bool skip_install =
        req.type == trace::AccessType::Prefetch &&
        req.pf_confidence < pf_fill_threshold_;
    if (!skip_install) {
        fill(req, ready,
             /*dirty=*/writes_on_rfo_ &&
                 req.type == trace::AccessType::Rfo);
    } else {
        ++counters_.pf_fills_skipped;
        notifyBypass(set, req, BypassReason::LowConfidencePrefetch);
    }

    if (demand)
        runPrefetcher(req, false, now);
    if (verify_)
        runVerify(set);
    return ready;
}

bool
Cache::fill(const MemRequest &req, uint64_t ready, bool dirty)
{
    const uint64_t line = CacheGeometry::lineAddress(req.address);
    const uint32_t set = geom_.setIndex(line);
    const size_t base = static_cast<size_t>(set) * geom_.ways;

    uint32_t way = geom_.ways;
    for (uint32_t w = 0; w < geom_.ways; ++w) {
        if (!valid_[base + w]) {
            way = w;
            break;
        }
    }

    if (way == geom_.ways) {
        for (uint32_t w = 0; w < geom_.ways; ++w) {
            view_scratch_[w] =
                BlockView{valid_[base + w] != 0,
                          dirty_[base + w] != 0,
                          prefetch_[base + w] != 0, addr_[base + w]};
        }
        const std::span<const BlockView> views{view_scratch_.data(),
                                              geom_.ways};
        AccessContext ctx;
        ctx.cpu = req.cpu;
        ctx.set = set;
        ctx.full_addr = req.address;
        ctx.pc = req.pc;
        ctx.type = req.type;
        ctx.hit = false;
        way = policy_->findVictim(ctx, views);

        if (way == ReplacementPolicy::kBypass) {
            if (req.type != trace::AccessType::Writeback) {
                ++counters_.bypasses;
                notifyBypass(set, req, policy_->bypassReason());
                return false;
            }
            // The policy wanted to bypass a writeback. Dirty data
            // has nowhere else to live, so deny the bypass and
            // re-query for a real victim.
            ++counters_.wb_bypass_denied;
            ctx.allow_bypass = false;
            way = policy_->findVictim(ctx, views);
            if (way == ReplacementPolicy::kBypass) {
                // Non-conforming policy (ignores allow_bypass):
                // last-resort way 0 rather than dropping the line.
                way = 0;
            }
        }
        util::ensure(way < geom_.ways, "Cache: bad victim way");

        const size_t vi = base + way;
        if (valid_[vi]) {
            const BlockView victim{valid_[vi] != 0, dirty_[vi] != 0,
                                   prefetch_[vi] != 0, addr_[vi]};
            if (!observers_.empty()) {
                // Before onEviction, while the policy's victim
                // metadata is still live.
                const uint64_t prio =
                    policy_->victimPriority(set, way);
                for (CacheObserver *o : observers_)
                    o->onEviction(set, way, victim.address, req, prio);
            }
            policy_->onEviction(set, way, victim);
            ++counters_.evictions;
            if (victim.dirty) {
                MemRequest wb;
                wb.address = victim.address;
                wb.pc = 0;
                wb.type = trace::AccessType::Writeback;
                wb.cpu = req.cpu;
                ++counters_.writebacks_issued;
                next_->access(wb, ready);
            }
        }
    }

    const size_t i = base + way;
    valid_[i] = 1;
    dirty_[i] = dirty ? 1 : 0;
    prefetch_[i] = req.type == trace::AccessType::Prefetch ? 1 : 0;
    tag_[i] = geom_.tag(line);
    addr_[i] = line;
    ready_at_[i] = ready;

    AccessContext ctx;
    ctx.cpu = req.cpu;
    ctx.set = set;
    ctx.way = way;
    ctx.full_addr = req.address;
    ctx.pc = req.pc;
    ctx.type = req.type;
    ctx.hit = false;
    policy_->onAccess(ctx);
    if (!observers_.empty()) {
        // Post-insertion priority (e.g. the inserted RRPV).
        const uint64_t prio = policy_->victimPriority(set, way);
        for (CacheObserver *o : observers_)
            o->onFill(set, way, req, prio);
    }
    return true;
}

void
Cache::runVerify(uint32_t set) const
{
    const auto views = setContents(set);
    policy_->verifyInvariants(set, views);
    const std::string err = accessConsistencyError(counters_);
    if (!err.empty()) {
        throw std::logic_error("cache '" + geom_.name +
                               "' stats: " + err);
    }
}

bool
Cache::probe(uint64_t address) const
{
    const uint64_t line = CacheGeometry::lineAddress(address);
    return lookup(geom_.setIndex(line), geom_.tag(line)) != kNoWay;
}

std::vector<BlockView>
Cache::setContents(uint32_t set) const
{
    std::vector<BlockView> views(geom_.ways);
    const size_t base = static_cast<size_t>(set) * geom_.ways;
    for (uint32_t w = 0; w < geom_.ways; ++w) {
        views[w] =
            BlockView{valid_[base + w] != 0, dirty_[base + w] != 0,
                      prefetch_[base + w] != 0, addr_[base + w]};
    }
    return views;
}

void
Cache::describeStats(stats::Registry &reg,
                     const std::string &prefix)
{
    counters_.forEach([&](const char *name, const uint64_t &value) {
        reg.bindCounter(prefix + "." + name, [&value] { return value; });
    });
    reg.bindCounter(
        prefix + ".demand_accesses",
        [this] { return demandAccesses(); }, "LD + RFO accesses");
    reg.bindCounter(prefix + ".demand_hits",
                    [this] { return demandHits(); },
                    "LD + RFO hits");
    reg.bindCounter(prefix + ".demand_misses",
                    [this] { return demandMisses(); },
                    "LD + RFO misses");
    reg.formula(
        prefix + ".demand_hit_rate",
        [this](const stats::Registry &) {
            return stats::hitRate(demandHits(), demandAccesses());
        },
        "demand hit rate in [0, 1]");
    reg.formula(
        prefix + ".policy.overhead_kib",
        [this](const stats::Registry &) {
            return policy_->overhead().totalKiB(geom_);
        },
        "replacement metadata (KiB) at this geometry");
    policy_->describeStats(reg, prefix + ".policy");
    if (prefetcher_)
        prefetcher_->describeStats(reg, prefix + ".prefetcher");
    for (CacheObserver *o : observers_)
        o->describeStats(reg, prefix);
}

void
Cache::resetStats()
{
    counters_ = CacheCounters{};
    for (CacheObserver *o : observers_)
        o->reset();
}

void
Cache::flush()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    std::fill(prefetch_.begin(), prefetch_.end(), 0);
    std::fill(tag_.begin(), tag_.end(), 0);
    std::fill(addr_.begin(), addr_.end(), 0);
    std::fill(ready_at_.begin(), ready_at_.end(), 0);
    while (!inflight_.empty())
        inflight_.pop();
    resetStats();
    // The policy's metadata describes lines that no longer exist;
    // without this, stale LRU stacks / RRPVs / signatures / ages
    // would steer the first victim choices after the flush.
    policy_->reset(geom_);
}

uint64_t
Cache::demandAccesses() const
{
    return counters_.access[kLoad] + counters_.access[kRfo];
}

uint64_t
Cache::demandHits() const
{
    return counters_.hit[kLoad] + counters_.hit[kRfo];
}

uint64_t
Cache::demandMisses() const
{
    return counters_.miss[kLoad] + counters_.miss[kRfo];
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (const uint8_t v : valid_)
        n += v;
    return n;
}

} // namespace rlr::cache
