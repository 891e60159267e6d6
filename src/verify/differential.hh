/**
 * @file
 * Differential policy oracle: replays randomized synthetic LLC
 * traces through the production cache::Cache + replacement policy
 * and the matching reference model (verify/ref_policies.hh) side
 * by side, comparing per-access hit/miss outcomes and resident-set
 * contents (which pins down every victim choice). On divergence
 * the failing trace is shrunk, ddmin-style, to a near-minimal
 * reproducer and rendered as a replayable (config, seed, access
 * list) report.
 *
 * The same module hosts the global fuzz invariants used by
 * tools/fuzz_policies: the brute-force Belady hit-rate upper
 * bound, the RLR_VERIFY-gated policy/stats invariant hooks (armed
 * on the production cache during every differential replay), and
 * the MutantPolicy wrapper whose deliberately corrupted victim
 * selection proves the harness detects real bugs.
 */

#ifndef RLR_VERIFY_DIFFERENTIAL_HH
#define RLR_VERIFY_DIFFERENTIAL_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/replacement.hh"
#include "core/rlr.hh"
#include "trace/record.hh"
#include "verify/ref_cache.hh"

namespace rlr::verify
{

/** One differential cell: cache shape, policy, knobs, trace. */
struct DiffSpec
{
    uint32_t sets = 4;
    uint32_t ways = 4;
    /**
     * Policy under test: LRU, SRRIP, BRRIP, DRRIP, SHiP, or any
     * name starting with "RLR" (knobs taken from `rlr`).
     */
    std::string policy = "LRU";

    /** RRIP-family width (SRRIP/BRRIP/DRRIP/SHiP RRPV bits). */
    unsigned rrpv_bits = 2;
    /** DRRIP leaders per policy (sets must be >= 2x this). */
    uint32_t leader_sets = 2;
    /** SHiP table knobs. */
    unsigned ship_signature_bits = 10;
    unsigned ship_shct_bits = 3;
    /** RLR knobs (policies named RLR*). */
    core::RlrConfig rlr;

    /**
     * Flush both models (Cache::flush / RefCache::flush) every N
     * accesses during the replay; 0 = never. Exercises the
     * policy-reset-on-flush contract differentially.
     */
    uint64_t flush_period = 0;

    /** Trace-generation knobs. */
    uint64_t seed = 1;
    uint64_t accesses = 2000;
    /** Size of the line-address pool the trace draws from. */
    uint32_t distinct_lines = 64;
    double rfo_frac = 0.10;
    double pf_frac = 0.10;
    double wb_frac = 0.10;
    unsigned num_pcs = 8;

    /** One-line replayable description (knobs + seed). */
    std::string describe() const;
};

/** @return true when @p policy has a reference model. */
bool hasReferenceModel(const std::string &policy);

/** Policy names covered by reference models (fuzz default set). */
std::vector<std::string> referencePolicies();

/** Production policy instance for a spec (no factory strings). */
std::unique_ptr<cache::ReplacementPolicy>
makeProductionPolicy(const DiffSpec &spec);

/** Matching reference model for a spec. */
std::unique_ptr<RefPolicy> makeReferencePolicy(const DiffSpec &spec);

/** Deterministic randomized LLC trace for a spec (seeded). */
std::vector<trace::LlcAccess> makeFuzzTrace(const DiffSpec &spec);

/** First divergence between production and reference replay. */
struct Mismatch
{
    /** Trace index of the diverging access. */
    size_t step = 0;
    std::string detail;
};

/** Outcome of one differential run. */
struct DiffResult
{
    bool ok = true;
    DiffSpec spec;
    Mismatch mismatch;
    /** Near-minimal mismatching trace (mismatch runs only). */
    std::vector<trace::LlcAccess> shrunk;
    /** Printable reproducer: config, seed, shrunk access list. */
    std::string repro;
};

/**
 * Deliberately broken policy wrapper for the mutation self-test:
 * delegates to @p inner but rotates every @p period -th victim
 * choice to the next way. A differential harness that cannot
 * catch this has no teeth.
 */
class MutantPolicy : public cache::ReplacementPolicy
{
  public:
    MutantPolicy(std::unique_ptr<cache::ReplacementPolicy> inner,
                 unsigned period);

    void bind(const cache::CacheGeometry &geom) override;
    void reset(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    void onEviction(uint32_t set, uint32_t way,
                    const cache::BlockView &block) override;
    std::string name() const override;
    bool usesPc() const override { return inner_->usesPc(); }
    cache::StorageOverhead overhead() const override;

  private:
    std::unique_ptr<cache::ReplacementPolicy> inner_;
    unsigned period_;
    uint64_t calls_ = 0;
    uint32_t ways_ = 0;
};

/**
 * Replay @p accesses through both models (invariant hooks armed on
 * the production cache).
 * @param mutate_period when > 0, wrap the production policy in a
 *        MutantPolicy with that corruption period (self-test)
 * @return the first mismatch, or nullopt when equivalent
 */
std::optional<Mismatch>
replayCompare(const DiffSpec &spec,
              const std::vector<trace::LlcAccess> &accesses,
              unsigned mutate_period = 0);

/**
 * Shrink a mismatching trace (truncate to the first divergence,
 * then ddmin chunk removal) while the mismatch persists.
 */
std::vector<trace::LlcAccess>
shrinkTrace(const DiffSpec &spec,
            std::vector<trace::LlcAccess> accesses,
            unsigned mutate_period = 0);

/**
 * Full differential pipeline: generate the spec's fuzz trace,
 * compare, and on mismatch shrink + render the reproducer.
 */
DiffResult runDifferential(const DiffSpec &spec,
                           unsigned mutate_period = 0);

/**
 * Observation oracle: replay the spec's fuzz trace through two
 * production caches built from the same spec — one with an
 * obs::EventLog, an obs::EpochSampler and a cache::TraceCapture
 * attached, one with nothing attached — and require
 * byte-identical behaviour: per-access completion times, per-set
 * resident contents after every access, and the full final
 * counter sets. The capture must hold exactly the accesses since
 * the last flush. Observation must never change simulation. The
 * policy is resolved through the factory, so any
 * core::knownPolicies() name works.
 * @return "" when equivalent, else a description of the first
 *         divergence
 */
std::string observerEquivalenceError(const DiffSpec &spec);

/**
 * Every counter that differs between two caches' counters, as
 * "<name>: observed=<a> detached=<b>" items separated by spaces.
 * @return "" when all counters agree
 */
std::string counterDivergence(const cache::CacheCounters &observed,
                              const cache::CacheCounters &detached);

/**
 * Optimality invariant: the production policy's hit count on a
 * load-only version of the spec's trace must not exceed
 * brute-force Belady MIN's (bypass-capable, so the bound also
 * covers bypassing policies).
 * @return "" when the bound holds, else a description
 */
std::string beladyBoundError(const DiffSpec &spec);

} // namespace rlr::verify

#endif // RLR_VERIFY_DIFFERENTIAL_HH
