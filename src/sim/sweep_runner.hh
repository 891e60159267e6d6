/**
 * @file
 * SweepRunner — the fault-isolated, observable, crash-safe
 * parallel experiment engine behind every (workload x policy)
 * sweep.
 *
 * Threads are the one way to run a sweep in parallel: each of
 * the sweep's threads runs one worker loop that claims the next
 * open cell, executes it and commits it, and a claim table hands
 * each cell to exactly one thread. Each cell's seed derives from
 * the master seed and its workload label only, so thread count
 * and claim order never change results, and every policy sees the
 * same access stream for a workload. A throwing cell becomes a
 * per-cell error string; the remaining cells still run.
 *
 * Robustness (docs/ROBUSTNESS.md): a durable journal
 * (journal_dir) records each committed cell, and a restarted sweep
 * skips journaled cells with byte-identical stable exports, which
 * is also how a sweep whose process was killed recovers; a
 * watchdog (cell_timeout_s) cancels an overrunning cell through
 * the cooperative CancelToken. A cell that throws or times out
 * fails once and is journaled as failed; resume re-runs failed
 * records, so a journaled restart is the one way to re-run a cell.
 * SIGINT/SIGTERM (handle_signals) drain: in-flight cells are
 * cancelled, unclaimed ones labelled, finished ones stay
 * journaled; a FaultPlan (faults) injects failures for tests.
 *
 * Observability: per-cell runtime, MIPS and resources;
 * sweep.* counters via stats(); an optional progress line, JSON
 * export, and heartbeat file.
 */

#ifndef RLR_SIM_SWEEP_RUNNER_HH
#define RLR_SIM_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/fault_plan.hh"
#include "util/table.hh"

namespace rlr::sim
{

/** Execution/observability knobs of one sweep. */
struct SweepOptions
{
    /** Worker threads (1 = serial, still fault-isolated). */
    size_t threads = 1;
    /** Emit a live progress line (done/total, ETA) on stderr. */
    bool progress = false;
    /** When non-empty, write a JSON export here after the run. */
    std::string json_path;
    /**
     * Zero the wall-clock telemetry (runtime_s, mips, resources)
     * on every cell so exports are byte-identical across runs of
     * the same seed (reproducibility checks, golden files).
     */
    bool stable_telemetry = false;

    /**
     * When non-empty, journal each completed cell into this
     * directory and resume from it on restart (sim/journal.hh).
     */
    std::string journal_dir;
    /** Watchdog deadline per cell in seconds; 0 = off. */
    double cell_timeout_s = 0.0;
    /** Install SIGINT/SIGTERM graceful-drain handlers while the
     *  sweep runs (finish/cancel in-flight cells, flush journal
     *  and partial JSON, leave the process to exit nonzero). */
    bool handle_signals = false;
    /** Fault injection plan (tests, crash/resume harness). */
    FaultPlan faults;

    /**
     * When non-empty, publish a liveness heartbeat file here
     * (obs/heartbeat.hh; atomic rewrite every heartbeat_period_s)
     * for `inspect --top` and external monitors.
     */
    std::string heartbeat_path;
    double heartbeat_period_s = 0.5;
};

/**
 * Robustness counters of one sweep, exported as "sweep.<field>"
 * (docs/ROBUSTNESS.md). reaped_markers is only non-zero in
 * journaled runs.
 */
struct SweepStats
{
    uint64_t completed_cells = 0;
    uint64_t resumed_cells = 0;
    uint64_t timeouts = 0;
    uint64_t failed_cells = 0;
    uint64_t cancelled_cells = 0;
    uint64_t reaped_markers = 0;

    SweepStats &
    operator+=(const SweepStats &o)
    {
        completed_cells += o.completed_cells;
        resumed_cells += o.resumed_cells;
        timeouts += o.timeouts;
        failed_cells += o.failed_cells;
        cancelled_cells += o.cancelled_cells;
        reaped_markers += o.reaped_markers;
        return *this;
    }
};

/** Fault-isolated parallel (workload x policy) experiment engine. */
class SweepRunner
{
  public:
    /** One unit of work: a policy over one or more core workloads. */
    struct CellSpec
    {
        /** Display label (the workload name, or a mix label). */
        std::string workload;
        std::string policy;
        /** Workloads, one per simulated core. */
        std::vector<std::string> cores;
    };

    /** Cell body; replaceable for tests (fault injection). */
    using CellFn =
        std::function<RunResult(const CellSpec &, const SimParams &)>;

    SweepRunner(SimParams params, SweepOptions opts = {});

    /** Replace the default runWorkloads() cell body (tests). */
    void setCellFn(CellFn fn) { cell_fn_ = std::move(fn); }

    /** Run the full (workloads x policies) cross product. */
    std::vector<SweepCell>
    run(const std::vector<std::string> &workloads,
        const std::vector<std::string> &policies);

    /** Run an explicit cell list (multicore mixes, custom grids). */
    std::vector<SweepCell> runCells(std::vector<CellSpec> specs);

    /**
     * Seed for a cell: mixes @p master_seed with the workload
     * label only, so a workload's access stream is identical
     * under every policy and independent of cell order.
     */
    static uint64_t cellSeed(uint64_t master_seed,
                             const std::string &workload);

    /** Robustness counters of the last runCells() call. */
    const SweepStats &stats() const { return sweep_stats_; }

    /**
     * @return true when a SIGINT/SIGTERM drain interrupted the
     * last handle_signals sweep in this process (callers should
     * exit nonzero).
     */
    static bool interrupted();

    /**
     * Exit-code policy of every bench binary: 130 after a
     * SIGINT/SIGTERM drain, 1 when any cell failed, 0 only when
     * every cell committed ok.
     */
    static int exitCode(bool interrupted, bool any_failed);

    /** @return true when any cell recorded an error. */
    static bool anyFailed(const std::vector<SweepCell> &cells);

    /** Table of the failed cells (Workload | Policy | Error). */
    static util::Table errorTable(const std::vector<SweepCell> &cells);

    /** JSON array of every cell's result and telemetry. */
    static std::string toJson(const std::vector<SweepCell> &cells);

    /** Atomically write toJson(cells) to @p path; fatal() on I/O
     *  failure. */
    static void writeJson(const std::string &path,
                          const std::vector<SweepCell> &cells);

    /**
     * Chrome trace_event JSON of the sweep schedule: one complete
     * ("X") slice per cell (named "workload/policy", packed into
     * lanes, with seed/MIPS/error args), loadable in
     * chrome://tracing and Perfetto. Under stable_telemetry the
     * cells carry zero timestamps, so the export is byte-identical
     * across same-seed runs.
     */
    static std::string
    chromeTraceJson(const std::vector<SweepCell> &cells);

  private:
    SimParams params_;
    SweepOptions opts_;
    CellFn cell_fn_;
    SweepStats sweep_stats_;
};

} // namespace rlr::sim

#endif // RLR_SIM_SWEEP_RUNNER_HH
