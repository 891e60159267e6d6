#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/resource.hh"
#include "stats/stats.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"

namespace rlr::sim
{

double
RunResult::llcDemandHitRate() const
{
    return stats::hitRate(llc_demand_hits, llc_demand_accesses);
}

double
RunResult::llcDemandMpki() const
{
    return stats::mpki(llc_demand_misses, total_instructions);
}

double
RunResult::ipc() const
{
    return cores.empty() ? 0.0 : cores[0].ipc;
}

double
RunResult::speedupOver(const RunResult &baseline) const
{
    util::ensure(cores.size() == baseline.cores.size(),
                 "speedupOver: core count mismatch");
    std::vector<double> ratios;
    ratios.reserve(cores.size());
    for (size_t i = 0; i < cores.size(); ++i)
        ratios.push_back(
            stats::speedup(cores[i].ipc, baseline.cores[i].ipc));
    return stats::geomean(ratios);
}

RunResult
runWorkloads(const std::vector<std::string> &workloads,
             const SimParams &params)
{
    util::ensure(!workloads.empty(), "runWorkloads: no workloads");
    using Clock = std::chrono::steady_clock;
    const obs::ResourceSample res_start =
        params.record_resources
            ? obs::ResourceSample::now(
                  obs::ResourceSample::Scope::Thread)
            : obs::ResourceSample{};
    // Phase boundaries, read after res_start and before the end
    // sample, so each phase lies inside the wall_ms region.
    const Clock::time_point t_start = Clock::now();
    const auto n = static_cast<uint32_t>(workloads.size());

    SystemConfig sys_cfg;
    sys_cfg.num_cores = n;
    sys_cfg.llc_policy = params.llc_policy;
    sys_cfg.policy_seed = params.seed;
    sys_cfg.l2_prefetcher = params.l2_prefetcher;
    sys_cfg.capture_llc_trace = params.capture_llc_trace;
    sys_cfg.llc_events_capacity = params.llc_events_capacity;
    sys_cfg.llc_events_sample_sets = params.llc_events_sample_sets;
    sys_cfg.llc_epoch_length = params.llc_epoch_length;
    sys_cfg.cancel = params.cancel;
    System system(sys_cfg);

    std::vector<std::unique_ptr<trace::SyntheticGenerator>> gens;
    for (uint32_t i = 0; i < n; ++i) {
        gens.push_back(trace::makeGenerator(
            workloads[i], params.seed + 0x9e37 * (i + 1)));
    }

    const uint32_t quantum = std::max(1u, params.interleave_quantum);

    // Advance all cores in approximate global-time order until
    // each has executed `target` instructions.
    auto advance_all = [&](uint64_t target,
                           auto instr_count) {
        if (n == 1) {
            const uint64_t done = instr_count(0);
            if (done < target)
                system.core(0).run(*gens[0], target - done);
            return;
        }
        for (;;) {
            // Pick the lagging core by current cycle among cores
            // still short of the target.
            uint32_t pick = n;
            uint64_t best_cycle = ~0ULL;
            bool all_done = true;
            for (uint32_t i = 0; i < n; ++i) {
                if (instr_count(i) >= target)
                    continue;
                all_done = false;
                if (system.core(i).cycles() < best_cycle) {
                    best_cycle = system.core(i).cycles();
                    pick = i;
                }
            }
            if (all_done)
                break;
            const uint64_t remaining = target - instr_count(pick);
            system.core(pick).run(
                *gens[pick],
                std::min<uint64_t>(quantum, remaining));
        }
    };

    const Clock::time_point t_setup = Clock::now();
    advance_all(params.warmup_instructions, [&](uint32_t i) {
        return system.core(i).instructions();
    });
    system.resetStats();

    const Clock::time_point t_warmup = Clock::now();
    advance_all(params.sim_instructions, [&](uint32_t i) {
        return system.core(i).measuredInstructions();
    });
    const Clock::time_point t_measure = Clock::now();

    RunResult result;
    for (uint32_t i = 0; i < n; ++i) {
        CoreResult cr;
        cr.workload = workloads[i];
        cr.ipc = system.core(i).ipc();
        cr.instructions = system.core(i).measuredInstructions();
        cr.cycles = system.core(i).measuredCycles();
        result.total_instructions += cr.instructions;
        result.cores.push_back(cr);
    }
    result.llc_demand_accesses = system.llc().demandAccesses();
    result.llc_demand_hits = system.llc().demandHits();
    result.llc_demand_misses = system.llc().demandMisses();
    stats::Registry registry;
    system.describeStats(registry);
    if (params.record_resources) {
        const obs::ResourceSample delta =
            obs::ResourceSample::now(
                obs::ResourceSample::Scope::Thread)
                .deltaFrom(res_start);
        obs::describeResourceStats(registry, "obs.res", delta);
        const auto us = [](Clock::duration d) {
            return static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    d)
                    .count());
        };
        registry.counter("obs.res.setup_us",
                         "System and generator construction") =
            us(t_setup - t_start);
        registry.counter("obs.res.warmup_us",
                         "warm-up phase, stats reset included") =
            us(t_warmup - t_setup);
        registry.counter("obs.res.measure_us", "measured phase") =
            us(t_measure - t_warmup);
    }
    result.stats = registry.snapshot();
    if (params.capture_llc_trace)
        result.llc_trace = system.llcTrace();
    if (system.llcEventLog())
        result.llc_events = system.llcEventLog()->data();
    return result;
}

RunResult
runSingleCore(const std::string &workload, const SimParams &params)
{
    return runWorkloads({workload}, params);
}

trace::LlcTrace
captureLlcTrace(const std::string &workload, const SimParams &params)
{
    SimParams p = params;
    p.llc_policy = "LRU"; // unbiased capture, as in the paper
    p.capture_llc_trace = true;
    return runWorkloads({workload}, p).llc_trace;
}

const SweepCell &
findCell(const std::vector<SweepCell> &cells,
         const std::string &workload, const std::string &policy)
{
    for (const auto &c : cells) {
        if (c.workload == workload && c.policy == policy)
            return c;
    }
    util::fatal("sweep cell ({}, {}) not found", workload, policy);
}

} // namespace rlr::sim
