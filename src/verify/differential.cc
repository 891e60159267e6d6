#include "verify/differential.hh"

#include <algorithm>
#include <stdexcept>

#include "cache/cache.hh"
#include "core/policy_factory.hh"
#include "obs/epoch.hh"
#include "obs/event_log.hh"
#include "policies/lru.hh"
#include "policies/rrip.hh"
#include "policies/ship.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "verify/ref_policies.hh"

namespace rlr::verify
{

namespace
{

/** Fixed-latency memory endpoint. At the default zero latency it
 *  keeps the timing model inert, so a differential replay is
 *  purely a replacement-behaviour trace. */
class NullMemory : public cache::MemoryLevel
{
  public:
    explicit NullMemory(uint64_t latency = 0) : latency_(latency) {}

    uint64_t
    access(const cache::MemRequest &, uint64_t now) override
    {
        return now + latency_;
    }

    const std::string &
    name() const override
    {
        static const std::string n = "null";
        return n;
    }

  private:
    uint64_t latency_;
};

cache::CacheGeometry
specGeometry(const DiffSpec &spec)
{
    cache::CacheGeometry g;
    g.name = "diff";
    g.size_bytes =
        static_cast<uint64_t>(spec.sets) * spec.ways * 64;
    g.ways = spec.ways;
    g.latency = 0;
    return g;
}

std::string
formatAccess(size_t idx, const trace::LlcAccess &a)
{
    return util::format("[{}] {} pc=0x{:x} addr=0x{:x}", idx,
                        trace::accessTypeName(a.type), a.pc,
                        a.address);
}

std::string
formatSet(const std::vector<RefLine> &lines)
{
    std::string out = "{";
    for (size_t w = 0; w < lines.size(); ++w) {
        if (w)
            out += " ";
        out += lines[w].valid
                   ? util::format("0x{:x}", lines[w].line)
                   : std::string("-");
    }
    return out + "}";
}

std::vector<RefLine>
viewsToRefLines(const std::vector<cache::BlockView> &views)
{
    std::vector<RefLine> lines(views.size());
    for (size_t w = 0; w < views.size(); ++w)
        lines[w] = RefLine{views[w].valid, views[w].address};
    return lines;
}

} // namespace

std::string
DiffSpec::describe() const
{
    std::string out = util::format(
        "policy={} sets={} ways={} seed={} accesses={} lines={}",
        policy, sets, ways, seed, accesses, distinct_lines);
    if (policy == "SRRIP" || policy == "BRRIP" ||
        policy == "DRRIP") {
        out += util::format(" rrpv_bits={}", rrpv_bits);
        if (policy == "DRRIP")
            out += util::format(" leader_sets={}", leader_sets);
    } else if (policy == "SHiP") {
        out += util::format(" rrpv_bits={} sig_bits={} shct_bits={}",
                            rrpv_bits, ship_signature_bits,
                            ship_shct_bits);
    } else if (policy.rfind("RLR", 0) == 0) {
        out += util::format(
            " opt={} age={} tick={} hit={} rdmul={} rdhits={} "
            "weight={} usehit={} usetype={} bypass={}",
            rlr.optimized ? 1 : 0, rlr.age_bits,
            rlr.age_tick_misses, rlr.hit_bits, rlr.rd_multiplier,
            rlr.rd_update_hits, rlr.age_weight,
            rlr.use_hit_priority ? 1 : 0,
            rlr.use_type_priority ? 1 : 0,
            rlr.allow_bypass ? 1 : 0);
    }
    if (flush_period > 0)
        out += util::format(" flush_period={}", flush_period);
    return out;
}

bool
hasReferenceModel(const std::string &policy)
{
    return policy == "LRU" || policy == "SRRIP" ||
           policy == "BRRIP" || policy == "DRRIP" ||
           policy == "SHiP" || policy.rfind("RLR", 0) == 0;
}

std::vector<std::string>
referencePolicies()
{
    return {"LRU",  "SRRIP", "BRRIP",    "DRRIP",
            "SHiP", "RLR",   "RLR-unopt"};
}

std::unique_ptr<cache::ReplacementPolicy>
makeProductionPolicy(const DiffSpec &spec)
{
    using namespace rlr::policies;
    if (spec.policy == "LRU")
        return std::make_unique<LruPolicy>();
    if (spec.policy == "SRRIP")
        return std::make_unique<SrripPolicy>(spec.rrpv_bits);
    if (spec.policy == "BRRIP")
        return std::make_unique<BrripPolicy>(spec.rrpv_bits,
                                             spec.seed);
    if (spec.policy == "DRRIP")
        return std::make_unique<DrripPolicy>(
            spec.rrpv_bits, spec.leader_sets, spec.seed);
    if (spec.policy == "SHiP") {
        ShipConfig cfg;
        cfg.rrpv_bits = spec.rrpv_bits;
        cfg.signature_bits = spec.ship_signature_bits;
        cfg.shct_bits = spec.ship_shct_bits;
        return std::make_unique<ShipPolicy>(cfg);
    }
    if (spec.policy.rfind("RLR", 0) == 0)
        return std::make_unique<core::RlrPolicy>(spec.rlr);
    util::fatal("differential: no production model for '{}'",
                spec.policy);
}

std::unique_ptr<RefPolicy>
makeReferencePolicy(const DiffSpec &spec)
{
    if (spec.policy == "LRU")
        return std::make_unique<RefLru>();
    if (spec.policy == "SRRIP")
        return std::make_unique<RefRrip>(
            RripMode::Srrip, spec.rrpv_bits, spec.seed,
            spec.leader_sets);
    if (spec.policy == "BRRIP")
        return std::make_unique<RefRrip>(
            RripMode::Brrip, spec.rrpv_bits, spec.seed,
            spec.leader_sets);
    if (spec.policy == "DRRIP")
        return std::make_unique<RefRrip>(
            RripMode::Drrip, spec.rrpv_bits, spec.seed,
            spec.leader_sets);
    if (spec.policy == "SHiP")
        return std::make_unique<RefShip>(spec.rrpv_bits,
                                         spec.ship_signature_bits,
                                         spec.ship_shct_bits);
    if (spec.policy.rfind("RLR", 0) == 0) {
        RefRlrParams p;
        p.optimized = spec.rlr.optimized;
        p.age_bits = spec.rlr.age_bits;
        p.age_tick_misses = spec.rlr.age_tick_misses;
        p.hit_bits = spec.rlr.hit_bits;
        p.rd_update_hits = spec.rlr.rd_update_hits;
        p.rd_multiplier = spec.rlr.rd_multiplier;
        p.use_hit_priority = spec.rlr.use_hit_priority;
        p.use_type_priority = spec.rlr.use_type_priority;
        p.age_weight = spec.rlr.age_weight;
        p.allow_bypass = spec.rlr.allow_bypass;
        return std::make_unique<RefRlr>(p);
    }
    util::fatal("differential: no reference model for '{}'",
                spec.policy);
}

std::vector<trace::LlcAccess>
makeFuzzTrace(const DiffSpec &spec)
{
    util::Rng rng(spec.seed ^ 0xd1ffULL);
    const uint32_t pool =
        std::max<uint32_t>(1, spec.distinct_lines);
    const uint32_t hot = std::min<uint32_t>(8, pool);

    std::vector<trace::LlcAccess> accesses;
    accesses.reserve(spec.accesses);
    for (uint64_t i = 0; i < spec.accesses; ++i) {
        uint64_t idx;
        const double pick = rng.nextDouble();
        if (pick < 0.35)
            idx = rng.nextBounded(hot); // hot working set
        else if (pick < 0.50)
            idx = i % pool; // streaming sweep
        else
            idx = rng.nextBounded(pool); // uniform background
        trace::LlcAccess a;
        a.address = idx * 64;
        const double t = rng.nextDouble();
        if (t < spec.rfo_frac)
            a.type = trace::AccessType::Rfo;
        else if (t < spec.rfo_frac + spec.pf_frac)
            a.type = trace::AccessType::Prefetch;
        else if (t < spec.rfo_frac + spec.pf_frac + spec.wb_frac)
            a.type = trace::AccessType::Writeback;
        else
            a.type = trace::AccessType::Load;
        a.pc = a.type == trace::AccessType::Writeback
                   ? 0
                   : 0x400 + 4 * rng.nextBounded(std::max(
                                     1u, spec.num_pcs));
        a.cpu = 0;
        accesses.push_back(a);
    }
    return accesses;
}

MutantPolicy::MutantPolicy(
    std::unique_ptr<cache::ReplacementPolicy> inner,
    unsigned period)
    : inner_(std::move(inner)), period_(period)
{
    util::ensure(inner_ != nullptr, "MutantPolicy: null inner");
    util::ensure(period_ >= 1, "MutantPolicy: period must be >= 1");
}

void
MutantPolicy::bind(const cache::CacheGeometry &geom)
{
    ways_ = geom.ways;
    calls_ = 0;
    inner_->bind(geom);
}

uint32_t
MutantPolicy::findVictim(const cache::AccessContext &ctx,
                         std::span<const uint64_t> line_addrs)
{
    uint32_t victim = inner_->findVictim(ctx, line_addrs);
    ++calls_;
    if (calls_ % period_ == 0 && victim != kBypass)
        victim = (victim + 1) % ways_;
    return victim;
}

void
MutantPolicy::reset(const cache::CacheGeometry &geom)
{
    // Forward to the inner policy's reset (which may re-seed
    // RNGs); rebinding locally would silently skip that.
    ways_ = geom.ways;
    calls_ = 0;
    inner_->reset(geom);
}

void
MutantPolicy::onAccess(const cache::AccessContext &ctx)
{
    inner_->onAccess(ctx);
}

void
MutantPolicy::onEviction(uint32_t set, uint32_t way,
                         const cache::BlockView &block)
{
    inner_->onEviction(set, way, block);
}

std::string
MutantPolicy::name() const
{
    return "mutant(" + inner_->name() + ")";
}

cache::StorageOverhead
MutantPolicy::overhead() const
{
    return inner_->overhead();
}

std::optional<Mismatch>
replayCompare(const DiffSpec &spec,
              const std::vector<trace::LlcAccess> &accesses,
              unsigned mutate_period)
{
    NullMemory next;
    std::unique_ptr<cache::ReplacementPolicy> policy =
        makeProductionPolicy(spec);
    if (mutate_period > 0) {
        policy = std::make_unique<MutantPolicy>(std::move(policy),
                                                mutate_period);
    }
    cache::Cache prod(specGeometry(spec), std::move(policy),
                      &next);
    prod.setVerifyInvariants(true);
    RefCache ref(spec.sets, spec.ways, makeReferencePolicy(spec));

    for (size_t i = 0; i < accesses.size(); ++i) {
        if (spec.flush_period > 0 && i > 0 &&
            i % spec.flush_period == 0) {
            prod.flush();
            ref.flush();
        }
        const trace::LlcAccess &a = accesses[i];
        const uint64_t line =
            cache::CacheGeometry::lineAddress(a.address);
        const bool prod_hit = prod.probe(a.address);

        cache::MemRequest req;
        req.address = a.address;
        req.pc = a.pc;
        req.type = a.type;
        req.cpu = a.cpu;
        try {
            prod.access(req, i);
        } catch (const std::exception &e) {
            return Mismatch{
                i, util::format("invariant violation on {}: {}",
                                formatAccess(i, a), e.what())};
        }

        RefAccess ra;
        ra.line = line;
        ra.pc = a.pc;
        ra.type = a.type;
        ra.cpu = a.cpu;
        ra.seq = i;
        const RefOutcome out = ref.access(ra);

        if (prod_hit != out.hit) {
            return Mismatch{
                i,
                util::format("hit/miss divergence on {}: "
                             "production={} reference={}",
                             formatAccess(i, a),
                             prod_hit ? "hit" : "miss",
                             out.hit ? "hit" : "miss")};
        }

        const uint32_t set = ref.setIndex(line);
        const auto prod_lines =
            viewsToRefLines(prod.setContents(set));
        const auto &ref_lines = ref.setLines(set);
        for (uint32_t w = 0; w < spec.ways; ++w) {
            if (prod_lines[w].valid == ref_lines[w].valid &&
                (!prod_lines[w].valid ||
                 prod_lines[w].line == ref_lines[w].line)) {
                continue;
            }
            return Mismatch{
                i, util::format(
                       "victim/content divergence on {} (set {} "
                       "way {}): production={} reference={}",
                       formatAccess(i, a), set, w,
                       formatSet(prod_lines),
                       formatSet(ref_lines))};
        }
    }
    return std::nullopt;
}

std::vector<trace::LlcAccess>
shrinkTrace(const DiffSpec &spec,
            std::vector<trace::LlcAccess> accesses,
            unsigned mutate_period)
{
    auto mismatches = [&](const std::vector<trace::LlcAccess> &t) {
        return replayCompare(spec, t, mutate_period).has_value();
    };
    const auto first = replayCompare(spec, accesses, mutate_period);
    if (!first)
        return accesses; // nothing to shrink
    // Everything after the first divergence is irrelevant.
    accesses.resize(first->step + 1);

    // ddmin-style chunk removal: drop ever-smaller windows while
    // the divergence (any divergence) persists.
    for (size_t chunk = std::max<size_t>(1, accesses.size() / 2);;
         chunk /= 2) {
        bool removed = true;
        while (removed) {
            removed = false;
            for (size_t i = 0; i + chunk <= accesses.size();) {
                std::vector<trace::LlcAccess> candidate;
                candidate.reserve(accesses.size() - chunk);
                candidate.insert(candidate.end(),
                                 accesses.begin(),
                                 accesses.begin() +
                                     static_cast<long>(i));
                candidate.insert(candidate.end(),
                                 accesses.begin() +
                                     static_cast<long>(i + chunk),
                                 accesses.end());
                if (!candidate.empty() && mismatches(candidate)) {
                    accesses = std::move(candidate);
                    removed = true;
                } else {
                    i += chunk;
                }
            }
        }
        if (chunk == 1)
            break;
    }

    // Re-truncate: the shrunk trace need not run past its own
    // first divergence.
    const auto last = replayCompare(spec, accesses, mutate_period);
    if (last)
        accesses.resize(last->step + 1);
    return accesses;
}

DiffResult
runDifferential(const DiffSpec &spec, unsigned mutate_period)
{
    DiffResult result;
    result.spec = spec;
    const auto trace = makeFuzzTrace(spec);
    const auto mismatch =
        replayCompare(spec, trace, mutate_period);
    if (!mismatch)
        return result;

    result.ok = false;
    result.mismatch = *mismatch;
    result.shrunk = shrinkTrace(spec, trace, mutate_period);

    std::string repro = "=== differential mismatch ===\n";
    repro += "spec: " + spec.describe() + "\n";
    if (mutate_period > 0)
        repro += util::format("mutation: every {} victim(s)\n",
                              mutate_period);
    repro += util::format("first divergence at step {}: {}\n",
                          mismatch->step, mismatch->detail);
    repro += util::format("shrunk reproducer ({} accesses):\n",
                          result.shrunk.size());
    for (size_t i = 0; i < result.shrunk.size(); ++i)
        repro += "  " + formatAccess(i, result.shrunk[i]) + "\n";
    repro += util::format(
        "replay: fuzz_policies --policies={} --seed={} "
        "--accesses={}\n",
        spec.policy, spec.seed, spec.accesses);
    result.repro = std::move(repro);
    return result;
}

std::string
counterDivergence(const cache::CacheCounters &observed,
                  const cache::CacheCounters &detached)
{
    std::vector<uint64_t> detached_values;
    detached.forEach([&](const char *, uint64_t value) {
        detached_values.push_back(value);
    });
    std::string diff;
    size_t i = 0;
    observed.forEach([&](const char *name, uint64_t value) {
        const uint64_t other = detached_values[i++];
        if (value != other) {
            diff += util::format("{}{}: observed={} detached={}",
                                 diff.empty() ? "" : " ", name, value,
                                 other);
        }
    });
    return diff;
}

std::string
observerEquivalenceError(const DiffSpec &spec)
{
    const auto accesses = makeFuzzTrace(spec);

    // spec.policy is resolved through the factory (not
    // makeProductionPolicy) so the oracle covers the whole zoo,
    // including policies with no reference model (SHiP++,
    // Hawkeye, ...).
    // Misses outlast the one-cycle gap between accesses, so a line
    // re-touched while its fill is in flight merges into the miss
    // and the merged path is observed too.
    NullMemory observed_mem(64);
    NullMemory detached_mem(64);
    cache::Cache observed(specGeometry(spec),
                          core::makePolicy(spec.policy, spec.seed),
                          &observed_mem);
    cache::Cache detached(specGeometry(spec),
                          core::makePolicy(spec.policy, spec.seed),
                          &detached_mem);
    obs::EventLog log;
    obs::EpochSampler epoch(64);
    cache::TraceCapture capture;
    observed.setObservers({&log, &epoch, &capture});

    size_t last_flush = 0;
    for (size_t i = 0; i < accesses.size(); ++i) {
        if (spec.flush_period > 0 && i > 0 &&
            i % spec.flush_period == 0) {
            observed.flush();
            detached.flush();
            last_flush = i;
        }
        const trace::LlcAccess &a = accesses[i];
        cache::MemRequest req;
        req.address = a.address;
        req.pc = a.pc;
        req.type = a.type;
        req.cpu = a.cpu;
        const uint64_t t_observed = observed.access(req, i);
        const uint64_t t_detached = detached.access(req, i);
        if (t_observed != t_detached) {
            return util::format(
                "{}: completion-time divergence on {}: observed={} "
                "detached={}",
                spec.policy, formatAccess(i, a), t_observed,
                t_detached);
        }

        const uint64_t line =
            cache::CacheGeometry::lineAddress(a.address);
        const uint32_t set = static_cast<uint32_t>(
            (line >> cache::kLineBits) % spec.sets);
        const auto observed_lines =
            viewsToRefLines(observed.setContents(set));
        const auto detached_lines =
            viewsToRefLines(detached.setContents(set));
        for (uint32_t w = 0; w < spec.ways; ++w) {
            if (observed_lines[w].valid == detached_lines[w].valid &&
                (!observed_lines[w].valid ||
                 observed_lines[w].line == detached_lines[w].line)) {
                continue;
            }
            return util::format(
                "{}: content divergence on {} (set {} way {}): "
                "observed={} detached={}",
                spec.policy, formatAccess(i, a), set, w,
                formatSet(observed_lines), formatSet(detached_lines));
        }
    }

    // An observer that never fired would make the comparison
    // vacuous.
    if (log.recorded() == 0)
        return util::format("{}: event log recorded nothing",
                            spec.policy);
    // The capture holds exactly the accesses since the last flush.
    const std::vector<trace::LlcAccess> since_flush(
        accesses.begin() + static_cast<long>(last_flush),
        accesses.end());
    if (capture.trace().accesses() != since_flush)
        return util::format("{}: trace capture diverges from the "
                            "access stream",
                            spec.policy);

    const std::string diff =
        counterDivergence(observed.counters(), detached.counters());
    if (!diff.empty())
        return util::format("{}: final stats diverge: {}", spec.policy,
                            diff);
    return "";
}

std::string
beladyBoundError(const DiffSpec &spec)
{
    // Load-only variant of the spec's trace (Belady MIN optimality
    // is a demand-fetch statement; WB write-allocate and bypassed
    // prefetches would muddy the bound).
    auto accesses = makeFuzzTrace(spec);
    // The brute-force oracle is O(n^2); keep the bound check on a
    // prefix so fuzz cells stay fast.
    if (accesses.size() > 800)
        accesses.resize(800);
    std::vector<uint64_t> lines;
    lines.reserve(accesses.size());
    for (auto &a : accesses) {
        a.type = trace::AccessType::Load;
        a.pc = 0x400;
        lines.push_back(
            cache::CacheGeometry::lineAddress(a.address));
    }

    NullMemory next;
    cache::Cache prod(specGeometry(spec),
                      makeProductionPolicy(spec), &next);
    prod.setVerifyInvariants(true);
    uint64_t prod_hits = 0;
    for (size_t i = 0; i < accesses.size(); ++i) {
        if (prod.probe(accesses[i].address))
            ++prod_hits;
        cache::MemRequest req;
        req.address = accesses[i].address;
        req.pc = accesses[i].pc;
        req.type = accesses[i].type;
        prod.access(req, i);
    }

    RefCache belady(spec.sets, spec.ways,
                    std::make_unique<RefBelady>(
                        lines, /*allow_bypass=*/true));
    for (size_t i = 0; i < lines.size(); ++i) {
        RefAccess ra;
        ra.line = lines[i];
        ra.pc = 0x400;
        ra.type = trace::AccessType::Load;
        ra.seq = i;
        belady.access(ra);
    }

    if (prod_hits <= belady.hits())
        return "";
    return util::format(
        "Belady bound violated: {} scored {} hits > optimal {} "
        "({} accesses; spec: {})",
        spec.policy, prod_hits, belady.hits(), accesses.size(),
        spec.describe());
}

} // namespace rlr::verify
