#include "core/rlr.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/bits.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace rlr::core
{

RlrConfig
RlrConfig::unoptimized()
{
    RlrConfig c;
    c.optimized = false;
    c.age_bits = 5;
    c.age_tick_misses = 1;
    c.hit_bits = 2;
    c.rd_multiplier = 2; // set-access units, as in the paper
    return c;
}

RlrConfig
RlrConfig::forMulticore(unsigned cores)
{
    RlrConfig c;
    c.multicore = true;
    c.num_cores = cores;
    return c;
}

RlrPolicy::RlrPolicy(RlrConfig config) : config_(config)
{
    util::ensure(config_.age_bits >= 1 && config_.age_bits <= 16,
                 "RLR: bad age_bits");
    util::ensure(config_.hit_bits >= 1 && config_.hit_bits <= 16,
                 "RLR: bad hit_bits");
    // overhead() charges a 3-bit per-set miss counter for the
    // optimized variant, so the tick period must fit in it.
    util::ensure(config_.age_tick_misses >= 1 &&
                     config_.age_tick_misses <= 8,
                 "RLR: age_tick_misses must fit the 3-bit per-set "
                 "counter (1..8)");
    util::ensure(util::isPowerOfTwo(config_.rd_update_hits),
                 "RLR: rd_update_hits must be a power of two");
    util::ensure(config_.num_cores >= 1, "RLR: zero cores");
    age_max_ = (1u << config_.age_bits) - 1;
    hit_max_ = (1u << config_.hit_bits) - 1;
}

void
RlrPolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    num_sets_ = geom.numSets();
    lines_.assign(static_cast<size_t>(num_sets_) * ways_,
                  LineState{});
    set_miss_ctr_.assign(num_sets_, 0);
    rd_ = 1;
    preuse_accum_ = 0;
    preuse_samples_ = 0;
    clock_ = 0;
    accesses_ = 0;
    core_demand_hits_.assign(config_.num_cores, 0);
    core_priority_.assign(config_.num_cores, 0);
}

RlrPolicy::LineState &
RlrPolicy::line(uint32_t set, uint32_t way)
{
    return lines_[static_cast<size_t>(set) * ways_ + way];
}

const RlrPolicy::LineState &
RlrPolicy::line(uint32_t set, uint32_t way) const
{
    return lines_[static_cast<size_t>(set) * ways_ + way];
}

void
RlrPolicy::ageSet(uint32_t set, bool miss)
{
    const size_t base = static_cast<size_t>(set) * ways_;
    if (config_.optimized) {
        // Optimized variant: ages advance one tick for every
        // age_tick_misses set *misses*, via a small per-set
        // counter. Hits leave the set unchanged.
        if (!miss)
            return;
        uint8_t &ctr = set_miss_ctr_[set];
        ctr = static_cast<uint8_t>((ctr + 1) %
                                   config_.age_tick_misses);
        if (ctr != 0)
            return;
        for (uint32_t w = 0; w < ways_; ++w) {
            LineState &ls = lines_[base + w];
            if (ls.age < age_max_)
                ++ls.age;
        }
    } else {
        // Unoptimized variant: ages count every set access.
        for (uint32_t w = 0; w < ways_; ++w) {
            LineState &ls = lines_[base + w];
            if (ls.age < age_max_)
                ++ls.age;
        }
    }
}

void
RlrPolicy::samplePreuse(uint32_t preuse)
{
    preuse_accum_ += preuse;
    ++preuse_samples_;
    if (preuse_samples_ < config_.rd_update_hits)
        return;
    // RD = multiplier * average accumulated preuse distance. For
    // the paper's 32 samples and 2x multiplier this is a single
    // right shift by 4 in hardware.
    rd_ = std::max<uint64_t>(
        1, config_.rd_multiplier * preuse_accum_ /
               config_.rd_update_hits);
    preuse_accum_ = 0;
    preuse_samples_ = 0;
}

void
RlrPolicy::updateCorePriorities()
{
    // Rank cores by demand hits; more hits -> higher priority
    // level, so lines from high-hit cores are retained.
    const unsigned n = config_.num_cores;
    std::vector<unsigned> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](unsigned a, unsigned b) {
                         return core_demand_hits_[a] <
                                core_demand_hits_[b];
                     });
    for (unsigned rank = 0; rank < n; ++rank) {
        core_priority_[order[rank]] =
            std::min(rank, 3u); // levels 0..3
    }
    std::fill(core_demand_hits_.begin(), core_demand_hits_.end(),
              0);
}

uint64_t
RlrPolicy::ageUnits(const LineState &ls) const
{
    // Ages and RD are both kept in set-miss units; the optimized
    // variant's per-line counter ticks once per age_tick_misses
    // misses, so its value is scaled back up for any comparison
    // against RD.
    return config_.optimized
               ? static_cast<uint64_t>(ls.age) *
                     config_.age_tick_misses
               : ls.age;
}

uint64_t
RlrPolicy::linePriority(uint32_t set, uint32_t way) const
{
    const LineState &ls = line(set, way);
    const uint64_t p_age = ageUnits(ls) <= rd_ ? 1 : 0;
    uint64_t p = config_.age_weight * p_age;
    if (config_.use_type_priority && !ls.last_was_prefetch)
        p += 1;
    if (config_.use_hit_priority)
        p += std::min<uint32_t>(ls.hits, hit_max_);
    if (config_.multicore)
        p += core_priority_[ls.cpu % config_.num_cores];
    return p;
}

uint32_t
RlrPolicy::findVictim(const cache::AccessContext &ctx,
                      std::span<const uint64_t> line_addrs)
{
    (void)line_addrs;
    const uint32_t set = ctx.set;

    if (config_.allow_bypass && ctx.allow_bypass &&
        ctx.type != trace::AccessType::Writeback) {
        // Bypass when no line has outlived the predicted reuse
        // distance: every resident line may still be reused. The
        // comparison must use scaled ages: raw optimized ages top
        // out at age_max_ (3), so comparing them against an RD in
        // set-miss units would bypass nearly every fill once
        // RD > age_max_.
        bool any_expired = false;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (ageUnits(line(set, w)) > rd_) {
                any_expired = true;
                break;
            }
        }
        if (!any_expired)
            return kBypass;
    }

    uint32_t victim = 0;
    uint64_t best_priority = ~0ULL;
    for (uint32_t w = 0; w < ways_; ++w) {
        const LineState &ls = line(set, w);
        const uint64_t p = linePriority(set, w);
        if (p < best_priority) {
            best_priority = p;
            victim = w;
            continue;
        }
        if (p != best_priority)
            continue;
        // Tie-break: evict the most recently used line, giving
        // older lines time to reach their predicted reuse.
        const LineState &cur = line(set, victim);
        if (config_.optimized) {
            // Recency approximated by the age counter: smaller
            // age = more recent. Final tie: lowest way index
            // (w > victim keeps the earlier way).
            if (ls.age < cur.age)
                victim = w;
        } else {
            if (ls.last_use > cur.last_use)
                victim = w;
        }
    }
    return victim;
}

void
RlrPolicy::onAccess(const cache::AccessContext &ctx)
{
    ++accesses_;

    if (config_.multicore) {
        if (ctx.hit && trace::isDemand(ctx.type))
            ++core_demand_hits_[ctx.cpu % config_.num_cores];
        if (accesses_ % config_.core_update_interval == 0)
            updateCorePriorities();
    }

    // Age the set before handling the touched line, so the line's
    // pre-access age is its preuse distance.
    ageSet(ctx.set, !ctx.hit);

    LineState &ls = line(ctx.set, ctx.way);

    if (ctx.hit) {
        if (trace::isDemand(ctx.type)) {
            // The age counter value at a demand hit is the line's
            // preuse distance; feed the RD predictor. In the
            // optimized variant the per-set miss counter supplies
            // the low-order bits at no extra per-line cost.
            const uint32_t sample =
                config_.optimized
                    ? ls.age * config_.age_tick_misses +
                          set_miss_ctr_[ctx.set]
                    : ls.age;
            samplePreuse(sample);
            if (ls.hits < hit_max_)
                ++ls.hits;
        }
        ls.age = 0;
        ls.last_was_prefetch =
            ctx.type == trace::AccessType::Prefetch;
        ls.last_use = ++clock_;
        ls.cpu = ctx.cpu;
        return;
    }

    // Fill: reset per-line state for the newly inserted line.
    ls.age = 0;
    ls.hits = 0;
    ls.last_was_prefetch = ctx.type == trace::AccessType::Prefetch;
    ls.last_use = ++clock_;
    ls.cpu = ctx.cpu;
}

void
RlrPolicy::verifyInvariants(
    uint32_t set, std::span<const cache::BlockView> blocks) const
{
    (void)blocks;
    if (rd_ < 1)
        throw std::logic_error("RLR: predicted reuse distance 0");
    if (preuse_samples_ >= config_.rd_update_hits) {
        throw std::logic_error(util::format(
            "RLR: {} pending preuse samples, update due at {}",
            preuse_samples_, config_.rd_update_hits));
    }
    if (config_.optimized &&
        set_miss_ctr_[set] >= config_.age_tick_misses) {
        throw std::logic_error(util::format(
            "RLR: set {} miss counter {} outside tick period {}",
            set, set_miss_ctr_[set], config_.age_tick_misses));
    }
    for (uint32_t w = 0; w < ways_; ++w) {
        const LineState &ls = line(set, w);
        if (ls.age > age_max_) {
            throw std::logic_error(util::format(
                "RLR: age {} of set {} way {} exceeds the {}-bit "
                "maximum {}",
                ls.age, set, w, config_.age_bits, age_max_));
        }
        if (ls.hits > hit_max_) {
            throw std::logic_error(util::format(
                "RLR: hit count {} of set {} way {} exceeds the "
                "{}-bit maximum {}",
                ls.hits, set, w, config_.hit_bits, hit_max_));
        }
        if (ls.last_use > clock_) {
            throw std::logic_error(util::format(
                "RLR: last_use {} of set {} way {} ahead of "
                "clock {}",
                ls.last_use, set, w, clock_));
        }
    }
}

std::string
RlrPolicy::name() const
{
    std::string n = "RLR";
    if (!config_.optimized)
        n += "(unopt)";
    if (config_.multicore)
        n += "-mc";
    if (!config_.use_hit_priority)
        n += "-nohit";
    if (!config_.use_type_priority)
        n += "-notype";
    return n;
}

cache::StorageOverhead
RlrPolicy::overhead() const
{
    cache::StorageOverhead o;
    if (config_.optimized) {
        // 2b age + 1b hit + 1b type per line, 3b per set:
        // 16.75KB for a 2MB 16-way LLC.
        o.bits_per_line =
            config_.age_bits + config_.hit_bits + 1;
        o.bits_per_set = 3;
    } else {
        // The paper charges 10 bits per line for the unoptimized
        // variant (5b age + 2b hit counter + 1b type + recency
        // share): 40KB for a 2MB LLC.
        o.bits_per_line = 10;
    }
    o.global_bits = 16 /*RD*/ + 16 /*accumulator*/ + 5 /*count*/;
    if (config_.multicore)
        o.global_bits += 12.0 * config_.num_cores + 2.0 * 8;
    return o;
}

unsigned
RlrPolicy::corePriority(uint8_t cpu) const
{
    return core_priority_[cpu % config_.num_cores];
}

void
RlrPolicy::describeStats(stats::Registry &reg,
                         const std::string &prefix)
{
    reg.bindCounter(
        prefix + ".reuse_distance", [this] { return rd_; },
        "predicted reuse distance (age-counter units)");
    reg.bindCounter(
        prefix + ".accesses", [this] { return accesses_; },
        "LLC accesses observed by the policy");
    reg.bindCounter(
        prefix + ".preuse_samples",
        [this] { return static_cast<uint64_t>(preuse_samples_); },
        "demand-hit preuse samples toward the next RD update");
    if (config_.multicore) {
        for (unsigned c = 0; c < config_.num_cores; ++c) {
            reg.bindCounter(
                prefix + util::format(".core{}_priority", c),
                [this, c] { return core_priority_[c]; },
                "multicore eviction priority of this core's lines");
        }
    }
}

} // namespace rlr::core
