/**
 * @file
 * Full-system assembly: N cores, private L1I/L1D/L2, shared LLC,
 * DRAM — the paper's Table III configuration by default.
 */

#ifndef RLR_SIM_SYSTEM_HH
#define RLR_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cpu/core.hh"
#include "mem/dram.hh"
#include "obs/epoch.hh"
#include "obs/event_log.hh"
#include "stats/registry.hh"
#include "trace/trace_io.hh"
#include "util/cancel_token.hh"

namespace rlr::sim
{

/** Which prefetcher sits at L2. */
enum class L2Prefetcher { IpStride, KpcP, None };

/** System-level configuration (defaults = paper Table III). */
struct SystemConfig
{
    uint32_t num_cores = 1;
    cpu::CoreConfig core{};

    /** L1 instruction cache: 32KB 8-way, 4-cycle. */
    uint64_t l1i_size = 32 * 1024;
    uint32_t l1i_ways = 8;
    uint32_t l1i_latency = 4;

    /** L1 data cache: 32KB 8-way, 4-cycle, next-line prefetcher. */
    uint64_t l1d_size = 32 * 1024;
    uint32_t l1d_ways = 8;
    uint32_t l1d_latency = 4;
    bool l1d_prefetcher = true;

    /** L2: 256KB 8-way, 12-cycle, IP-stride prefetcher. */
    uint64_t l2_size = 256 * 1024;
    uint32_t l2_ways = 8;
    uint32_t l2_latency = 12;
    L2Prefetcher l2_prefetcher = L2Prefetcher::IpStride;

    /** LLC: 2MB 16-way per core, 26-cycle, no prefetcher. */
    uint64_t llc_size_per_core = 2 * 1024 * 1024;
    uint32_t llc_ways = 16;
    uint32_t llc_latency = 26;

    /** LLC replacement policy (policy_factory name). */
    std::string llc_policy = "LRU";
    uint64_t policy_seed = 1;

    /** Record the LLC access stream into an LlcTrace. */
    bool capture_llc_trace = false;

    /** Decision-level LLC event log (src/obs/): ring capacity in
     *  events; 0 disables (the default — zero hot-path cost). */
    uint32_t llc_events_capacity = 0;
    /** Record events for 1-in-N LLC sets (1 = every set). */
    uint32_t llc_events_sample_sets = 1;
    /** LLC epoch sampler: epoch length in LLC accesses;
     *  0 disables. */
    uint64_t llc_epoch_length = 0;

    /**
     * Cooperative cancellation token polled by every core's run
     * loop (borrowed; null = no checkpointing). Lets a watchdog
     * or signal drain stop a simulation mid-run.
     */
    const util::CancelToken *cancel = nullptr;

    mem::DramConfig dram{};
};

/** A fully wired simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &config);

    cpu::O3Core &core(uint32_t i) { return *cores_[i]; }
    uint32_t numCores() const;

    cache::Cache &llc() { return *llc_; }
    cache::Cache &l2(uint32_t i) { return *l2_[i]; }
    cache::Cache &l1d(uint32_t i) { return *l1d_[i]; }
    cache::Cache &l1i(uint32_t i) { return *l1i_[i]; }
    mem::Dram &dram() { return *dram_; }

    const SystemConfig &config() const { return config_; }

    /** Captured LLC trace (capture_llc_trace only). */
    const trace::LlcTrace &llcTrace() const
    {
        return llc_capture_.trace();
    }

    /** LLC event log (null unless llc_events_capacity > 0). */
    obs::EventLog *llcEventLog() { return llc_events_.get(); }
    /** LLC epoch sampler (null unless llc_epoch_length > 0). */
    obs::EpochSampler *llcEpochSampler()
    {
        return llc_epoch_.get();
    }

    /** Reset all statistics (end of warmup); state is kept warm. */
    void resetStats();

    /**
     * Mount every component's statistics into @p reg with the
     * canonical dotted naming scheme (docs/ARCHITECTURE.md):
     * "dram.*", "llc.*" (incl. "llc.policy.*"), and per core i
     * "core<i>.*", "core<i>.l1i.*", "core<i>.l1d.*",
     * "core<i>.l2.*", plus system-level formulas such as
     * "llc.demand_mpki".
     */
    void describeStats(stats::Registry &reg);

  private:
    SystemConfig config_;
    std::unique_ptr<mem::Dram> dram_;
    std::unique_ptr<cache::Cache> llc_;
    std::vector<std::unique_ptr<cache::Cache>> l2_;
    std::vector<std::unique_ptr<cache::Cache>> l1i_;
    std::vector<std::unique_ptr<cache::Cache>> l1d_;
    std::vector<std::unique_ptr<cpu::O3Core>> cores_;
    std::unique_ptr<obs::EventLog> llc_events_;
    std::unique_ptr<obs::EpochSampler> llc_epoch_;
    /** Attached to the LLC only under capture_llc_trace. */
    cache::TraceCapture llc_capture_;
};

} // namespace rlr::sim

#endif // RLR_SIM_SYSTEM_HH
