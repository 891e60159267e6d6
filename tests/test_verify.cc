/**
 * @file
 * Tests for the verification subsystem (src/verify/): the RefCache
 * protocol mirror, the brute-force Belady model, the differential
 * oracle over every reference-modeled policy (>= 50 fuzzed cells),
 * trace shrinking, flush-periodic differentials, the
 * observer-equivalence oracle over the whole policy zoo, the
 * mutation self-test, and the RLR_VERIFY invariant hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "cache/cache.hh"
#include "core/policy_factory.hh"
#include "verify/differential.hh"
#include "verify/ref_policies.hh"

using namespace rlr;
using verify::DiffSpec;
using verify::RefAccess;
using verify::RefCache;

namespace
{

RefAccess
load(uint64_t line_idx, uint64_t seq)
{
    RefAccess a;
    a.line = line_idx * 64;
    a.pc = 0x400;
    a.type = trace::AccessType::Load;
    a.seq = seq;
    return a;
}

/** Sequence of line indices replayed through a Belady RefCache. */
uint64_t
beladyHits(uint32_t sets, uint32_t ways,
           const std::vector<uint64_t> &idx, bool bypass)
{
    std::vector<uint64_t> lines;
    for (const uint64_t i : idx)
        lines.push_back(i * 64);
    RefCache cache(sets, ways,
                   std::make_unique<verify::RefBelady>(lines,
                                                       bypass));
    for (size_t s = 0; s < idx.size(); ++s)
        cache.access(load(idx[s], s));
    return cache.hits();
}

} // namespace

// --- RefCache protocol ---------------------------------------------

TEST(RefCache, FillsInvalidWaysInOrder)
{
    RefCache cache(2, 2, std::make_unique<verify::RefLru>());
    // Lines 0 and 2 both map to set 0.
    EXPECT_EQ(cache.access(load(0, 0)).way, 0u);
    EXPECT_EQ(cache.access(load(2, 1)).way, 1u);
    EXPECT_TRUE(cache.access(load(0, 2)).hit);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(RefCache, WritebackNeverBypasses)
{
    // Belady with bypass on: a load of a never-reused line is
    // bypassed, but the same fill as a writeback must allocate.
    std::vector<uint64_t> lines = {0, 2 * 64, 4 * 64, 6 * 64, 0};
    RefCache cache(1, 2,
                   std::make_unique<verify::RefBelady>(lines, true));
    cache.access(load(0, 0));
    cache.access(load(2, 1));
    // Line 4 is never reused while both residents are: bypass.
    EXPECT_TRUE(cache.access(load(4, 2)).bypassed);
    RefAccess wb = load(6, 3);
    wb.type = trace::AccessType::Writeback;
    wb.pc = 0;
    const auto out = cache.access(wb);
    EXPECT_FALSE(out.bypassed);
    EXPECT_EQ(out.way, 1u); // evicts the dead line, not line 0
}

// --- Belady optimality ---------------------------------------------

TEST(Belady, EvictsFarthestNextUse)
{
    // 1 set, 2 ways. Access 0,1,2 then 0: Belady evicts 1 (next
    // use farthest/never) when 2 fills, so 0 still hits.
    EXPECT_EQ(beladyHits(1, 2, {0, 1, 2, 0}, false), 1u);
    // LRU on the same trace would evict 0 and score no hits.
    RefCache lru(1, 2, std::make_unique<verify::RefLru>());
    const std::vector<uint64_t> idx = {0, 1, 2, 0};
    uint64_t hits = 0;
    for (size_t s = 0; s < idx.size(); ++s)
        hits += lru.access(load(idx[s], s)).hit ? 1 : 0;
    EXPECT_EQ(hits, 0u);
}

TEST(Belady, BypassBeatsCaching)
{
    // Repeated scans of 3 lines through a 2-way set: with bypass,
    // MIN keeps {0, 1} resident and re-hits them every round.
    std::vector<uint64_t> idx;
    for (int r = 0; r < 4; ++r)
        for (uint64_t l = 0; l < 3; ++l)
            idx.push_back(l);
    const uint64_t with_bypass = beladyHits(1, 2, idx, true);
    const uint64_t without = beladyHits(1, 2, idx, false);
    EXPECT_GE(with_bypass, without);
    EXPECT_EQ(with_bypass, 6u); // lines 0 and 1 hit in rounds 2..4
}

TEST(Belady, UpperBoundsEveryPolicyOnFuzzedTraces)
{
    for (const auto &policy : verify::referencePolicies()) {
        DiffSpec spec;
        spec.policy = policy;
        spec.sets = 4;
        spec.ways = 2;
        spec.accesses = 400;
        spec.distinct_lines = 24;
        if (policy.rfind("RLR", 0) == 0) {
            spec.rlr = policy == "RLR-unopt"
                           ? core::RlrConfig::unoptimized()
                           : core::RlrConfig{};
            spec.rlr.allow_bypass = true;
        }
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            spec.seed = seed;
            EXPECT_EQ(verify::beladyBoundError(spec), "")
                << policy << " seed " << seed;
        }
    }
}

// --- Differential oracle -------------------------------------------

TEST(Differential, FuzzedCellsAgreeForEveryPolicy)
{
    // >= 50 fuzzed (config, seed) cells across all reference-
    // modeled policies; every cell must replay mismatch-free.
    const auto policies = verify::referencePolicies();
    const uint32_t shapes[][2] = {{2, 2}, {4, 4}, {8, 2}, {16, 4}};
    size_t cells = 0;
    for (const auto &policy : policies) {
        for (const auto &shape : shapes) {
            for (uint64_t seed = 1; seed <= 2; ++seed) {
                DiffSpec spec;
                spec.policy = policy;
                spec.sets = shape[0];
                spec.ways = shape[1];
                // DRRIP needs >= 2 leader sets per policy.
                if (policy == "DRRIP")
                    spec.sets = std::max<uint32_t>(spec.sets, 4);
                spec.seed = seed * 7919;
                spec.accesses = 1200;
                spec.distinct_lines = spec.sets * spec.ways * 3;
                if (policy == "RLR-unopt")
                    spec.rlr = core::RlrConfig::unoptimized();
                if (policy.rfind("RLR", 0) == 0)
                    spec.rlr.allow_bypass = seed % 2 == 0;
                const auto result = verify::runDifferential(spec);
                EXPECT_TRUE(result.ok) << result.repro;
                ++cells;
            }
        }
    }
    EXPECT_GE(cells, 50u);
}

TEST(Differential, TraceGenerationIsDeterministic)
{
    DiffSpec spec;
    spec.seed = 99;
    const auto a = verify::makeFuzzTrace(spec);
    const auto b = verify::makeFuzzTrace(spec);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    spec.seed = 100;
    const auto c = verify::makeFuzzTrace(spec);
    EXPECT_FALSE(std::equal(a.begin(), a.end(), c.begin()));
}

/**
 * Flush-then-access differential against the independent
 * reference models: periodic Cache::flush / RefCache::flush pairs
 * must keep production and reference in lockstep, which pins down
 * ReplacementPolicy::reset() for every reference-modeled policy
 * (including RNG re-seeding in BRRIP/DRRIP).
 */
TEST(Differential, FlushDifferentialAgainstReferenceModels)
{
    for (const auto &policy : verify::referencePolicies()) {
        verify::DiffSpec spec;
        spec.policy = policy;
        spec.sets = 8;
        spec.ways = 4;
        spec.seed = 5;
        spec.accesses = 2000;
        spec.distinct_lines = 96;
        spec.flush_period = 237;
        const auto result = verify::runDifferential(spec);
        EXPECT_TRUE(result.ok)
            << "policy " << policy << "\n"
            << result.repro;
    }
}

// --- Observer equivalence ------------------------------------------

namespace
{

/** Zoo-wide spec sized so DRRIP's 32 leader sets fit. */
DiffSpec
zooSpec(const std::string &policy, uint64_t seed)
{
    DiffSpec spec;
    spec.policy = policy;
    spec.sets = 64;
    spec.ways = 8;
    spec.seed = seed;
    spec.accesses = 1500;
    spec.distinct_lines = 64 * 8 * 2;
    return spec;
}

} // namespace

/**
 * For every factory policy, a cache with an EventLog, an
 * EpochSampler and a TraceCapture attached and a cache with
 * nothing attached must agree on per-access completion times,
 * per-set contents after every access, and the full final counter
 * set; the capture must equal the access stream.
 */
TEST(ObserverEquivalence, ObservedAndDetachedCachesAgree)
{
    for (const auto &policy : core::knownPolicies()) {
        EXPECT_EQ(verify::observerEquivalenceError(
                      zooSpec(policy, 11)),
                  "")
            << "policy " << policy;
    }
}

/** Same oracle with periodic flushes (observer reset parity). */
TEST(ObserverEquivalence, EquivalenceHoldsAcrossFlushes)
{
    for (const auto &policy : core::knownPolicies()) {
        auto spec = zooSpec(policy, 23);
        spec.flush_period = 311;
        EXPECT_EQ(verify::observerEquivalenceError(spec), "")
            << "policy " << policy;
    }
}

/** The oracle's counter comparison names whichever counter differs. */
TEST(ObserverEquivalence, CounterDivergenceNamesTheCounter)
{
    const cache::CacheCounters base;
    EXPECT_EQ(verify::counterDivergence(base, base), "");
    std::vector<std::string> names;
    base.forEach([&](const char *name, uint64_t) {
        names.push_back(name);
    });
    ASSERT_EQ(names.size(), 20u);
    for (size_t k = 0; k < names.size(); ++k) {
        cache::CacheCounters bumped;
        size_t i = 0;
        // forEach hands out const references; bumped itself is not
        // const, so writing through one is well defined.
        bumped.forEach([&](const char *, const uint64_t &value) {
            if (i++ == k)
                ++const_cast<uint64_t &>(value);
        });
        EXPECT_EQ(verify::counterDivergence(bumped, base),
                  names[k] + ": observed=1 detached=0");
    }
}

// --- Mutation self-test --------------------------------------------

TEST(Differential, MutantPolicyIsCaughtAndShrunk)
{
    for (const auto &policy : verify::referencePolicies()) {
        DiffSpec spec;
        spec.policy = policy;
        spec.sets = 4;
        spec.ways = 4;
        spec.seed = 1234;
        spec.accesses = 1500;
        spec.distinct_lines = spec.sets * spec.ways * 3;
        if (policy == "RLR-unopt")
            spec.rlr = core::RlrConfig::unoptimized();
        const auto result =
            verify::runDifferential(spec, /*mutate_period=*/3);
        ASSERT_FALSE(result.ok)
            << policy << ": corrupted victim choice not detected";
        // The reproducer is shrunk and replayable.
        EXPECT_FALSE(result.shrunk.empty());
        EXPECT_LE(result.shrunk.size(), result.mismatch.step + 1);
        EXPECT_LT(result.shrunk.size(), spec.accesses);
        EXPECT_NE(result.repro.find("spec: policy=" + policy),
                  std::string::npos);
        EXPECT_NE(result.repro.find("shrunk reproducer"),
                  std::string::npos);
        // The shrunk trace still mismatches when replayed.
        EXPECT_TRUE(verify::replayCompare(spec, result.shrunk, 3)
                        .has_value());
        // ...and the pristine policy replays it cleanly.
        EXPECT_FALSE(verify::replayCompare(spec, result.shrunk, 0)
                         .has_value());
    }
}

// --- Invariant hooks -----------------------------------------------

namespace
{

/** LRU whose verifyInvariants trips after a fixed access count. */
class TrippingPolicy : public cache::ReplacementPolicy
{
  public:
    explicit TrippingPolicy(uint64_t trip_after)
        : trip_after_(trip_after)
    {
    }

    void bind(const cache::CacheGeometry &geom) override
    {
        ways_ = geom.ways;
    }

    uint32_t
    findVictim(const cache::AccessContext &,
               std::span<const uint64_t>) override
    {
        return 0;
    }

    void onAccess(const cache::AccessContext &) override
    {
        ++accesses_;
    }

    void
    verifyInvariants(uint32_t,
                     std::span<const cache::BlockView>) const override
    {
        if (accesses_ >= trip_after_)
            throw std::logic_error("metadata out of range");
    }

    std::string name() const override { return "tripping"; }
    cache::StorageOverhead overhead() const override { return {}; }

  private:
    uint64_t trip_after_;
    uint64_t accesses_ = 0;
    uint32_t ways_ = 0;
};

class NullNext : public cache::MemoryLevel
{
  public:
    uint64_t access(const cache::MemRequest &, uint64_t now) override
    {
        return now;
    }
    const std::string &name() const override
    {
        static const std::string n = "null";
        return n;
    }
};

cache::CacheGeometry
tinyGeom()
{
    cache::CacheGeometry g;
    g.name = "tiny";
    g.size_bytes = 4 * 2 * 64;
    g.ways = 2;
    g.latency = 0;
    return g;
}

} // namespace

TEST(InvariantHooks, ArmedCacheSurfacesPolicyViolations)
{
    NullNext next;
    cache::Cache c(tinyGeom(),
                   std::make_unique<TrippingPolicy>(3), &next);
    c.setVerifyInvariants(true);
    cache::MemRequest req;
    req.address = 0;
    EXPECT_NO_THROW(c.access(req, 0));
    req.address = 64;
    EXPECT_NO_THROW(c.access(req, 1));
    req.address = 128;
    EXPECT_THROW(c.access(req, 2), std::logic_error);
}

TEST(InvariantHooks, DisarmedCacheIgnoresViolations)
{
    NullNext next;
    cache::Cache c(tinyGeom(),
                   std::make_unique<TrippingPolicy>(0), &next);
    c.setVerifyInvariants(false);
    cache::MemRequest req;
    req.address = 0;
    EXPECT_NO_THROW(c.access(req, 0));
}

TEST(InvariantHooks, StatsConsistencyCheckedWhenArmed)
{
    NullNext next;
    cache::Cache c(tinyGeom(),
                   std::make_unique<TrippingPolicy>(1000), &next);
    c.setVerifyInvariants(true);
    cache::MemRequest req;
    req.address = 0;
    EXPECT_NO_THROW(c.access(req, 0));
    // Corrupt the per-type counters behind the cache's back.
    ++c.counters().hit[static_cast<size_t>(trace::AccessType::Load)];
    EXPECT_THROW(c.access(req, 1), std::logic_error);
}

TEST(InvariantHooks, CleanPoliciesReplayWithHooksArmed)
{
    // replayCompare arms RLR_VERIFY hooks on the production cache;
    // a clean policy must replay a long trace without tripping its
    // own width checks.
    for (const auto &policy : verify::referencePolicies()) {
        DiffSpec spec;
        spec.policy = policy;
        spec.sets = 8;
        spec.ways = 4;
        spec.seed = 5;
        spec.accesses = 2000;
        spec.distinct_lines = 96;
        if (policy == "RLR-unopt")
            spec.rlr = core::RlrConfig::unoptimized();
        const auto trace = verify::makeFuzzTrace(spec);
        EXPECT_FALSE(
            verify::replayCompare(spec, trace).has_value())
            << policy;
    }
}

TEST(Stats, AccessConsistencyError)
{
    constexpr auto kLd = static_cast<size_t>(trace::AccessType::Load);
    constexpr auto kWb =
        static_cast<size_t>(trace::AccessType::Writeback);
    cache::CacheCounters c;
    c.access[kLd] = 10;
    c.hit[kLd] = 6;
    c.miss[kLd] = 4;
    EXPECT_EQ(cache::accessConsistencyError(c), "");
    c.hit[kWb] = 1; // no matching access
    EXPECT_NE(cache::accessConsistencyError(c), "");
}
