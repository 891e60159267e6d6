/**
 * @file
 * Experiment drivers: warmup+measure simulation of one workload
 * (or a multicore mix) under a named LLC policy. Sweeps over many
 * cells run through sim::SweepRunner (sim/sweep_runner.hh).
 */

#ifndef RLR_SIM_EXPERIMENT_HH
#define RLR_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/system.hh"
#include "stats/registry.hh"
#include "stats/stats.hh"
#include "trace/trace_io.hh"

namespace rlr::sim
{

/** Knobs for one simulation run. */
struct SimParams
{
    /** Warmup instructions per core (stats discarded). */
    uint64_t warmup_instructions = 1'000'000;
    /** Measured instructions per core. */
    uint64_t sim_instructions = 5'000'000;
    std::string llc_policy = "LRU";
    L2Prefetcher l2_prefetcher = L2Prefetcher::IpStride;
    uint64_t seed = 42;
    bool capture_llc_trace = false;
    /** Multicore stepping quantum (instructions per turn). */
    uint32_t interleave_quantum = 64;

    /** LLC event-log ring capacity; 0 disables (src/obs/). */
    uint32_t llc_events_capacity = 0;
    /** Record events for 1-in-N LLC sets. */
    uint32_t llc_events_sample_sets = 1;
    /** LLC epoch length in accesses; 0 disables the sampler. */
    uint64_t llc_epoch_length = 0;

    /**
     * Export the run's resource cost (CPU time, peak RSS, page
     * faults — obs/resource.hh) into the stats snapshot under
     * `obs.res.*`. Off by default: the values are wall-clock-
     * dependent, and the seed-determinism contract compares
     * snapshots of same-seed runs byte for byte.
     */
    bool record_resources = false;

    /**
     * Cancellation token polled by the run loops (borrowed; null
     * = no checkpointing). runWorkloads throws
     * util::CancelledError at the next checkpoint after a cancel
     * — the SweepRunner's watchdog and signal drain hang off
     * this.
     */
    const util::CancelToken *cancel = nullptr;
};

/** Per-core outcome of a run. */
struct CoreResult
{
    std::string workload;
    double ipc = 0.0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
};

/** Outcome of one simulation run. */
struct RunResult
{
    std::vector<CoreResult> cores;
    uint64_t llc_demand_accesses = 0;
    uint64_t llc_demand_hits = 0;
    uint64_t llc_demand_misses = 0;
    uint64_t total_instructions = 0;

    /**
     * Frozen registry snapshot of the whole system (every
     * component's counters, distributions, and formulas under the
     * dotted naming scheme — "llc.evictions", "dram.row_hits",
     * "core0.ipc", ...). Exported per sweep cell in the JSON
     * output and consumed by tools/report.
     */
    stats::Snapshot stats;

    /** Captured LLC access stream (capture_llc_trace only). */
    trace::LlcTrace llc_trace;

    /** LLC decision events (llc_events_capacity > 0 only). */
    obs::EventLogData llc_events;

    double llcDemandHitRate() const;
    /** Demand misses per kilo-instruction. */
    double llcDemandMpki() const;
    /** IPC of core 0 (single-core runs). */
    double ipc() const;
    /** Geometric-mean speedup of this run over @p baseline. */
    double speedupOver(const RunResult &baseline) const;
};

/**
 * Simulate one or more workloads (one per core) under @p params.
 * Cores run interleaved in approximate global-time order; finite
 * sources wrap, as in the paper's multicore methodology.
 */
RunResult runWorkloads(const std::vector<std::string> &workloads,
                       const SimParams &params);

/** Single-core convenience wrapper. */
RunResult runSingleCore(const std::string &workload,
                        const SimParams &params);

/**
 * Capture the LLC access stream of a workload under LRU (the
 * paper's trace-generation step for offline RL/Belady runs).
 */
trace::LlcTrace captureLlcTrace(const std::string &workload,
                                const SimParams &params);

/** One cell of a (workload x policy) sweep. */
struct SweepCell
{
    std::string workload;
    std::string policy;
    RunResult result;

    /** Seed actually used for this cell (derived, per-workload). */
    uint64_t seed = 0;
    /** Wall-clock start offset from the sweep start in seconds
     *  (Chrome-trace timeline). */
    double start_seconds = 0.0;
    /** Wall-clock runtime of this cell in seconds. */
    double wall_seconds = 0.0;
    /** Simulated instruction throughput (million instrs/sec). */
    double mips = 0.0;
    /** Non-empty when the cell failed; result is default-valued. */
    std::string error;

    /** Attempts consumed (1 + retries actually taken). */
    uint32_t attempts = 1;
    /** Total backoff wall-clock slept between attempts. */
    double retry_wait_s = 0.0;
    /** The final attempt was reaped by the --cell-timeout
     *  watchdog (error records "timeout ..."). */
    bool timed_out = false;
    /** Loaded from a sweep journal instead of re-run. */
    bool resumed = false;

    /** Worker-thread CPU time spent on this cell, seconds
     *  (obs/resource.hh; zeroed under stable telemetry). */
    double cpu_user_s = 0.0;
    double cpu_sys_s = 0.0;
    /** Process peak RSS observed when the cell finished (KiB). */
    uint64_t max_rss_kb = 0;
    /** Minor page faults charged to the worker during the cell. */
    uint64_t minor_faults = 0;

    bool ok() const { return error.empty(); }
};

/** Find a cell in a sweep result; fatal() when absent. */
const SweepCell &findCell(const std::vector<SweepCell> &cells,
                          const std::string &workload,
                          const std::string &policy);

} // namespace rlr::sim

#endif // RLR_SIM_EXPERIMENT_HH
