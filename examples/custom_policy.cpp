/**
 * @file
 * Shows how to implement a new replacement policy against the
 * public API and evaluate it in the full system next to the
 * built-in policies.
 *
 * The example policy ("FIFO-H") evicts in insertion order but
 * protects lines that have been hit at least once — a two-line
 * illustration of the ReplacementPolicy interface.
 */

#include <cstdio>
#include <vector>

#include "cache/replacement.hh"
#include "core/policy_factory.hh"
#include "policies/lru.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

using namespace rlr;

namespace
{

/** FIFO with one protection bit per line. */
class FifoHPolicy : public cache::ReplacementPolicy
{
  public:
    void
    bind(const cache::CacheGeometry &geom) override
    {
        ways_ = geom.ways;
        inserted_.assign(
            static_cast<size_t>(geom.numSets()) * ways_, 0);
        hit_.assign(inserted_.size(), false);
    }

    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override
    {
        (void)line_addrs;
        const size_t base = static_cast<size_t>(ctx.set) * ways_;
        // Oldest unprotected line; fall back to oldest overall.
        uint32_t victim = 0;
        uint64_t oldest = ~0ULL;
        bool found_unprotected = false;
        for (uint32_t w = 0; w < ways_; ++w) {
            const bool prot = hit_[base + w];
            if (found_unprotected && prot)
                continue;
            if ((!found_unprotected && !prot) ||
                inserted_[base + w] < oldest) {
                if (!prot || !found_unprotected) {
                    victim = w;
                    oldest = inserted_[base + w];
                    found_unprotected |= !prot;
                }
            }
        }
        return victim;
    }

    void
    onAccess(const cache::AccessContext &ctx) override
    {
        const size_t idx =
            static_cast<size_t>(ctx.set) * ways_ + ctx.way;
        if (ctx.hit) {
            hit_[idx] = true;
        } else {
            inserted_[idx] = ++clock_;
            hit_[idx] = false;
        }
    }

    std::string name() const override { return "FIFO-H"; }

    cache::StorageOverhead
    overhead() const override
    {
        cache::StorageOverhead o;
        o.bits_per_line = 1; // the protection bit (FIFO pointer
                             // amortizes to log2(ways)/set)
        o.bits_per_set = 4;
        return o;
    }

  private:
    uint32_t ways_ = 0;
    uint64_t clock_ = 0;
    std::vector<uint64_t> inserted_;
    std::vector<bool> hit_;
};

double
runWith(std::unique_ptr<cache::ReplacementPolicy> policy,
        const std::string &workload)
{
    // Wire a system manually so the custom policy can be injected
    // (the factory only knows built-in names).
    mem::Dram dram;
    cache::CacheGeometry llc_geom;
    llc_geom.name = "LLC";
    llc_geom.size_bytes = 2 * 1024 * 1024;
    llc_geom.ways = 16;
    llc_geom.latency = 26;
    llc_geom.mshrs = 64;
    cache::Cache llc(llc_geom, std::move(policy), &dram);

    cache::CacheGeometry l2_geom;
    l2_geom.name = "L2";
    l2_geom.size_bytes = 256 * 1024;
    l2_geom.ways = 8;
    l2_geom.latency = 12;
    l2_geom.mshrs = 32;
    cache::Cache l2(l2_geom,
                    std::make_unique<policies::LruPolicy>(), &llc);

    cache::CacheGeometry l1_geom;
    l1_geom.name = "L1D";
    l1_geom.size_bytes = 32 * 1024;
    l1_geom.ways = 8;
    l1_geom.latency = 4;
    l1_geom.mshrs = 16;
    cache::Cache l1d(l1_geom,
                     std::make_unique<policies::LruPolicy>(), &l2);
    l1d.setWritesOnRfo(true);
    cache::Cache l1i(l1_geom,
                     std::make_unique<policies::LruPolicy>(), &l2);

    cpu::O3Core core({}, 0, &l1i, &l1d);
    auto gen = trace::makeGenerator(workload, 42);
    core.run(*gen, 250'000);
    core.beginMeasurement();
    llc.resetStats();
    core.run(*gen, 1'000'000);
    std::printf("  %-8s IPC %.4f, LLC demand hit rate %5.1f%%\n",
                llc.policy()->name().c_str(), core.ipc(),
                100.0 *
                    (llc.demandAccesses()
                         ? static_cast<double>(llc.demandHits()) /
                               static_cast<double>(
                                   llc.demandAccesses())
                         : 0.0));
    return core.ipc();
}

} // namespace

int
main()
{
    const std::string workload = "471.omnetpp";
    std::printf("Evaluating a custom policy (FIFO-H) against "
                "built-ins on %s:\n",
                workload.c_str());
    const double lru =
        runWith(core::makePolicy("LRU"), workload);
    const double rlr =
        runWith(core::makePolicy("RLR"), workload);
    const double mine =
        runWith(std::make_unique<FifoHPolicy>(), workload);
    std::printf("\nFIFO-H vs LRU: %+.2f%% | RLR vs LRU: "
                "%+.2f%%\n",
                100.0 * (mine / lru - 1.0),
                100.0 * (rlr / lru - 1.0));
    return 0;
}
