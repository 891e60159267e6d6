#include "sim/system.hh"

#include "core/policy_factory.hh"
#include "core/rlr.hh"
#include "policies/lru.hh"
#include "prefetch/ip_stride.hh"
#include "prefetch/kpc_p.hh"
#include "prefetch/next_line.hh"
#include "util/logging.hh"

namespace rlr::sim
{

System::System(const SystemConfig &config) : config_(config)
{
    util::ensure(config_.num_cores >= 1, "System: no cores");

    dram_ = std::make_unique<mem::Dram>(config_.dram);

    cache::CacheGeometry llc_geom;
    llc_geom.name = "LLC";
    llc_geom.size_bytes =
        config_.llc_size_per_core * config_.num_cores;
    llc_geom.ways = config_.llc_ways;
    llc_geom.latency = config_.llc_latency;
    llc_geom.mshrs = 64 * config_.num_cores;
    llc_ = std::make_unique<cache::Cache>(
        llc_geom,
        core::makePolicy(config_.llc_policy, config_.policy_seed),
        dram_.get());
    std::vector<cache::CacheObserver *> llc_observers;
    if (config_.capture_llc_trace)
        llc_observers.push_back(&llc_capture_);
    if (config_.llc_events_capacity > 0) {
        obs::EventLogConfig ev_cfg;
        ev_cfg.capacity = config_.llc_events_capacity;
        ev_cfg.sample_sets = config_.llc_events_sample_sets;
        llc_events_ = std::make_unique<obs::EventLog>(ev_cfg);
        llc_observers.push_back(llc_events_.get());
    }
    if (config_.llc_epoch_length > 0) {
        llc_epoch_ = std::make_unique<obs::EpochSampler>(
            config_.llc_epoch_length);
        llc_observers.push_back(llc_epoch_.get());
        // RLR exposes its predicted reuse distance as the tracked
        // per-epoch policy scalar (paper Section IV's rd_).
        if (auto *rlr =
                dynamic_cast<core::RlrPolicy *>(llc_->policy())) {
            llc_epoch_->setScalarProvider(
                "rd", [rlr] { return rlr->reuseDistance(); });
        }
    }
    llc_->setObservers(std::move(llc_observers));

    for (uint32_t i = 0; i < config_.num_cores; ++i) {
        cache::CacheGeometry l2_geom;
        l2_geom.name = util::format("cpu{}.L2", i);
        l2_geom.size_bytes = config_.l2_size;
        l2_geom.ways = config_.l2_ways;
        l2_geom.latency = config_.l2_latency;
        l2_geom.mshrs = 32;
        auto l2 = std::make_unique<cache::Cache>(
            l2_geom, std::make_unique<policies::LruPolicy>(),
            llc_.get());
        switch (config_.l2_prefetcher) {
          case L2Prefetcher::IpStride:
            l2->setPrefetcher(
                std::make_unique<prefetch::IpStridePrefetcher>());
            break;
          case L2Prefetcher::KpcP:
            l2->setPrefetcher(
                std::make_unique<prefetch::KpcPPrefetcher>());
            // KPC-P: low-confidence prefetches skip the L2 but
            // still fill the LLC (Kim et al.).
            l2->setPrefetchFillThreshold(0.25f);
            break;
          case L2Prefetcher::None:
            break;
        }

        cache::CacheGeometry l1i_geom;
        l1i_geom.name = util::format("cpu{}.L1I", i);
        l1i_geom.size_bytes = config_.l1i_size;
        l1i_geom.ways = config_.l1i_ways;
        l1i_geom.latency = config_.l1i_latency;
        l1i_geom.mshrs = 8;
        auto l1i = std::make_unique<cache::Cache>(
            l1i_geom, std::make_unique<policies::LruPolicy>(),
            l2.get());

        cache::CacheGeometry l1d_geom;
        l1d_geom.name = util::format("cpu{}.L1D", i);
        l1d_geom.size_bytes = config_.l1d_size;
        l1d_geom.ways = config_.l1d_ways;
        l1d_geom.latency = config_.l1d_latency;
        l1d_geom.mshrs = 16;
        auto l1d = std::make_unique<cache::Cache>(
            l1d_geom, std::make_unique<policies::LruPolicy>(),
            l2.get());
        l1d->setWritesOnRfo(true);
        if (config_.l1d_prefetcher) {
            l1d->setPrefetcher(
                std::make_unique<prefetch::NextLinePrefetcher>());
        }

        auto core = std::make_unique<cpu::O3Core>(
            config_.core, static_cast<uint8_t>(i), l1i.get(),
            l1d.get());
        core->setCancelToken(config_.cancel);

        l2_.push_back(std::move(l2));
        l1i_.push_back(std::move(l1i));
        l1d_.push_back(std::move(l1d));
        cores_.push_back(std::move(core));
    }
}

uint32_t
System::numCores() const
{
    return static_cast<uint32_t>(cores_.size());
}

void
System::describeStats(stats::Registry &reg)
{
    dram_->describeStats(reg, "dram");
    llc_->describeStats(reg, "llc");
    for (uint32_t i = 0; i < numCores(); ++i) {
        const std::string core = util::format("core{}", i);
        cores_[i]->describeStats(reg, core);
        l1i_[i]->describeStats(reg, core + ".l1i");
        l1d_[i]->describeStats(reg, core + ".l1d");
        l2_[i]->describeStats(reg, core + ".l2");
    }
    reg.formula(
        "llc.demand_mpki",
        [this](const stats::Registry &) {
            uint64_t instructions = 0;
            for (const auto &c : cores_)
                instructions += c->measuredInstructions();
            return stats::mpki(llc_->demandMisses(), instructions);
        },
        "LLC demand misses per kilo-instruction (all cores)");
    reg.formula(
        "total_instructions",
        [this](const stats::Registry &) {
            uint64_t instructions = 0;
            for (const auto &c : cores_)
                instructions += c->measuredInstructions();
            return static_cast<double>(instructions);
        },
        "measured instructions summed over all cores");
}

void
System::resetStats()
{
    dram_->resetStats();
    llc_->resetStats();
    for (uint32_t i = 0; i < numCores(); ++i) {
        l2_[i]->resetStats();
        l1i_[i]->resetStats();
        l1d_[i]->resetStats();
        cores_[i]->beginMeasurement();
    }
}

} // namespace rlr::sim
