/**
 * @file
 * Shared command-line plumbing for the experiment harnesses. Every
 * bench binary accepts the same scaling knobs so a default run of
 * each binary in build/bench completes quickly, while
 * --paper-scale approaches the paper's instruction counts.
 */

#ifndef RLR_BENCH_COMMON_HH
#define RLR_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/events_io.hh"
#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "stats/stats.hh"
#include "trace/workloads.hh"
#include "util/args.hh"
#include "util/atomic_file.hh"
#include "util/rng.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/table.hh"

namespace rlr::bench
{

/** Parsed common options. */
struct BenchOptions
{
    sim::SimParams params;
    std::vector<std::string> workloads;
    std::vector<std::string> policies;
    size_t threads = 8;
    bool csv = false;
    uint64_t seed = 42;

    /** SweepRunner knobs (threads mirrored, --progress). */
    sim::SweepOptions sweep;
    /** --json: combined export path for every sweep in the run. */
    std::string json;
    /** --events: LLC decision-event export path (enables the
     *  event log for every cell). */
    std::string events;
    /** --chrome-trace: trace_event JSON path for the sweep. */
    std::string chrome_trace;
    /** --journal: base directory for durable sweep journals
     *  (each sweep in the binary gets a sweep-NNN subdir). */
    std::string journal;

    /** RL-specific scaling. */
    uint64_t rl_instructions = 300'000;
    unsigned rl_epochs = 1;
};

/**
 * Build the shared parser.
 * @param description program banner
 * @param default_warmup / default_sim default instruction counts
 */
inline util::ArgParser
makeParser(const std::string &description)
{
    util::ArgParser parser(description);
    parser.addOption("warmup", "300000",
                     "Warmup instructions per core");
    parser.addOption("instructions", "1200000",
                     "Measured instructions per core");
    parser.addOption("workloads", "",
                     "Comma-separated workload names (default: "
                     "experiment-specific)");
    parser.addOption("policies", "",
                     "Comma-separated policy names (default: "
                     "experiment-specific)");
    parser.addOption("threads", "8", "Worker threads for sweeps");
    parser.addOption("seed", "42", "Master random seed");
    parser.addOption("rl-instructions", "300000",
                     "Instructions for RL trace capture");
    parser.addOption("rl-epochs", "2", "RL training epochs");
    parser.addOption("json", "",
                     "Write every sweep cell (result, telemetry, "
                     "error) as JSON to this path");
    parser.addOption("events", "",
                     "Record LLC decision events (fills, hits, "
                     "evictions, bypasses) and write them as JSON "
                     "to this path (tools/inspect input)");
    parser.addOption("events-capacity", "65536",
                     "Event-log ring capacity per cell "
                     "(with --events)");
    parser.addOption("events-sample", "1",
                     "Record events for 1-in-N LLC sets "
                     "(with --events)");
    parser.addOption("epoch", "0",
                     "LLC epoch length in accesses; adds "
                     "llc.epoch.* time-series to the stats "
                     "snapshot (0 = off)");
    parser.addOption("chrome-trace", "",
                     "Write the sweep schedule as Chrome "
                     "trace_event JSON (chrome://tracing, "
                     "Perfetto) to this path");
    parser.addOption("journal", "",
                     "Durable sweep journal directory: completed "
                     "cells are recorded with atomic writes and "
                     "skipped when the run is restarted "
                     "(docs/ROBUSTNESS.md)");
    parser.addOption("cell-timeout", "0",
                     "Watchdog deadline per sweep-cell attempt in "
                     "seconds; a cell exceeding it is cancelled "
                     "with a 'timeout' error (0 = off)");
    parser.addOption("cell-retries", "0",
                     "Re-run a cell up to N times after retryable "
                     "failures (timeouts, transient faults) with "
                     "decorrelated-jitter backoff");
    parser.addOption("faults", "",
                     "Fault-injection plan: comma list of "
                     "kind[:N]@<index|workload:policy> or "
                     "kind%rate; kinds: throw, transient, hang, "
                     "abort, corrupt-journal");
    parser.addOption("heartbeat", "",
                     "Write a machine-readable sweep heartbeat "
                     "file (atomically replaced every period; "
                     "tools/inspect --top input)");
    parser.addOption("heartbeat-period", "0.5",
                     "Heartbeat refresh period in seconds "
                     "(with --heartbeat)");
    parser.addFlag("resources",
                   "Record per-cell CPU/RSS/fault telemetry "
                   "(obs.res.* stats, cpu_*/max_rss_kb JSON "
                   "fields)");
    parser.addFlag("stable-json",
                   "Zero wall-clock telemetry (runtime_s, mips, "
                   "retry_wait_s) in JSON exports so same-seed "
                   "runs are byte-identical");
    parser.addFlag("csv", "Emit CSV instead of aligned tables");
    parser.addFlag("progress",
                   "Live sweep progress line (done/total, ETA) on "
                   "stderr");
    parser.addFlag("paper-scale",
                   "Use paper-scale run lengths (slow)");
    return parser;
}

/** Extract BenchOptions after parser.parse() succeeded. */
inline BenchOptions
makeOptions(const util::ArgParser &parser)
{
    BenchOptions opt;
    opt.params.warmup_instructions = parser.getUint("warmup");
    opt.params.sim_instructions = parser.getUint("instructions");
    opt.seed = parser.getUint("seed");
    opt.params.seed = opt.seed;
    opt.threads = parser.getUint("threads");
    opt.sweep.threads = opt.threads;
    opt.sweep.progress = parser.getFlag("progress");
    opt.sweep.stable_telemetry = parser.getFlag("stable-json");
    opt.json = parser.get("json");
    opt.events = parser.get("events");
    opt.chrome_trace = parser.get("chrome-trace");
    if (!opt.events.empty()) {
        opt.params.llc_events_capacity = static_cast<uint32_t>(
            parser.getUint("events-capacity"));
        opt.params.llc_events_sample_sets = static_cast<uint32_t>(
            parser.getUint("events-sample"));
    }
    opt.params.llc_epoch_length = parser.getUint("epoch");
    opt.journal = parser.get("journal");
    opt.sweep.heartbeat_path = parser.get("heartbeat");
    opt.sweep.heartbeat_period_s =
        parser.getDouble("heartbeat-period");
    opt.params.record_resources = parser.getFlag("resources");
    opt.sweep.cell_timeout_s = parser.getDouble("cell-timeout");
    opt.sweep.cell_retries =
        static_cast<uint32_t>(parser.getUint("cell-retries"));
    // Bench sweeps always drain gracefully on SIGINT/SIGTERM
    // (finish in-flight cells' cancellation, flush journal and
    // partial exports, exit nonzero).
    opt.sweep.handle_signals = true;
    if (const std::string spec = parser.get("faults");
        !spec.empty()) {
        try {
            opt.sweep.faults = sim::FaultPlan::parse(spec);
        } catch (const std::exception &e) {
            util::fatal("{}", e.what());
        }
    }
    opt.csv = parser.getFlag("csv");
    opt.workloads = parser.getList("workloads");
    opt.policies = parser.getList("policies");
    opt.rl_instructions = parser.getUint("rl-instructions");
    opt.rl_epochs = static_cast<unsigned>(parser.getUint("rl-epochs"));
    if (parser.getFlag("paper-scale")) {
        opt.params.warmup_instructions = 200'000'000;
        opt.params.sim_instructions = 1'000'000'000;
        opt.rl_instructions = 100'000'000;
        opt.rl_epochs = 4;
    }
    return opt;
}

/** Print a table in the selected format. */
inline void
emit(const BenchOptions &opt, const util::Table &table)
{
    std::fputs(
        (opt.csv ? table.csv() : table.render()).c_str(), stdout);
}

namespace detail
{

/** Every sweep cell this binary has run, for the --json export. */
inline std::vector<sim::SweepCell> &
collectedCells()
{
    static std::vector<sim::SweepCell> cells;
    return cells;
}

/** Robustness counters summed over every sweep in this binary. */
inline sim::SweepStats &
sweepStats()
{
    static sim::SweepStats sum;
    return sum;
}

/**
 * Per-sweep options: each sweep a binary runs gets its own
 * journal subdirectory (<base>/sweep-NNN), so a figure with
 * several sweeps resumes each one independently.
 */
inline sim::SweepOptions
nextSweepOptions(const BenchOptions &opt)
{
    sim::SweepOptions sweep = opt.sweep;
    if (!opt.journal.empty()) {
        static int counter = 0;
        sweep.journal_dir = opt.journal + "/sweep-" +
                            std::to_string(counter++);
    }
    return sweep;
}

} // namespace detail

/**
 * Run a fault-isolated (workloads x policies) sweep with the
 * shared --threads/--progress knobs and record the cells for the
 * --json export / finish() failure report. Failed cells keep a
 * default result, so downstream tables print zeros for them
 * rather than aborting the whole figure.
 */
inline std::vector<sim::SweepCell>
runSweep(const BenchOptions &opt, const sim::SimParams &params,
         const std::vector<std::string> &workloads,
         const std::vector<std::string> &policies)
{
    sim::SweepRunner runner(params, detail::nextSweepOptions(opt));
    auto cells = runner.run(workloads, policies);
    detail::sweepStats() += runner.stats();
    detail::collectedCells().insert(detail::collectedCells().end(),
                                    cells.begin(), cells.end());
    return cells;
}

/** runSweep() with the options' own SimParams. */
inline std::vector<sim::SweepCell>
runSweep(const BenchOptions &opt,
         const std::vector<std::string> &workloads,
         const std::vector<std::string> &policies)
{
    return runSweep(opt, opt.params, workloads, policies);
}

/**
 * Shared epilogue for every bench main: write the --json export
 * (all sweeps combined, even after a signal drain), print the
 * sweep robustness counters when any fired, print an error table
 * when any cell failed, and return the process exit status
 * (1 on any cell failure, 130 after a SIGINT/SIGTERM drain).
 */
inline int
finish(const BenchOptions &opt)
{
    const auto &cells = detail::collectedCells();
    if (!opt.json.empty())
        sim::SweepRunner::writeJson(opt.json, cells);
    if (!opt.events.empty()) {
        std::vector<obs::CellEvents> logs;
        for (const auto &c : cells) {
            if (!c.ok() || c.result.llc_events.empty())
                continue;
            logs.push_back(obs::CellEvents{
                c.workload, c.policy, c.seed, c.result.llc_events});
        }
        obs::writeEvents(opt.events, logs);
    }
    if (!opt.chrome_trace.empty()) {
        util::atomicWriteFileOrFatal(
            opt.chrome_trace,
            sim::SweepRunner::chromeTraceJson(cells));
    }
    const sim::SweepStats &r = detail::sweepStats();
    if (r.retries + r.timeouts + r.resumed_cells + r.cancelled_cells +
            r.reaped_markers >
        0) {
        std::puts("\n=== Sweep robustness ===");
        // One "sweep.<name> <value>" line each, in name order.
        const std::pair<const char *, uint64_t> lines[] = {
            {"cancelled_cells", r.cancelled_cells},
            {"completed_cells", r.completed_cells},
            {"failed_cells", r.failed_cells},
            {"reaped_markers", r.reaped_markers},
            {"resumed_cells", r.resumed_cells},
            {"retries", r.retries},
            {"timeouts", r.timeouts}};
        for (const auto &[name, value] : lines)
            std::fputs(util::format("sweep.{} {}\n", name, value).c_str(),
                       stdout);
    }
    const bool interrupted = sim::SweepRunner::interrupted();
    const bool any_failed = sim::SweepRunner::anyFailed(cells);
    if (interrupted) {
        std::puts("\ninterrupted: sweep drained after signal "
                  "(journal and partial exports written)");
    } else if (any_failed) {
        std::puts("\n=== Failed sweep cells ===");
        emit(opt, sim::SweepRunner::errorTable(cells));
    }
    return sim::SweepRunner::exitCode(interrupted, any_failed);
}

/** Names of all SPEC-like workloads. */
inline std::vector<std::string>
specNames()
{
    std::vector<std::string> names;
    for (const auto &w : trace::specWorkloads())
        names.push_back(w.name);
    return names;
}

/** Names of all CloudSuite-like workloads. */
inline std::vector<std::string>
cloudNames()
{
    std::vector<std::string> names;
    for (const auto &w : trace::cloudWorkloads())
        names.push_back(w.name);
    return names;
}

/** Names of the paper's eight RL-training workloads. */
inline std::vector<std::string>
trainingNames()
{
    std::vector<std::string> names;
    for (const auto &w : trace::trainingWorkloads())
        names.push_back(w.name);
    return names;
}

/**
 * @p policies with LRU, the baseline every figure normalizes to,
 * prepended unless already listed — listing it twice would
 * simulate every LRU cell twice.
 */
inline std::vector<std::string>
withLruBaseline(const std::vector<std::string> &policies)
{
    std::vector<std::string> all = policies;
    if (std::find(all.begin(), all.end(), "LRU") == all.end())
        all.insert(all.begin(), "LRU");
    return all;
}

/**
 * Shared driver for the IPC-speedup figures (Figs. 10/11): sweep
 * (workloads x {LRU + policies}), print per-benchmark % speedup
 * over LRU and the overall geomean.
 */
inline void
runSpeedupFigure(const BenchOptions &opt,
                 const std::vector<std::string> &workloads,
                 const std::vector<std::string> &policies,
                 const std::string &title)
{
    const auto cells =
        runSweep(opt, workloads, withLruBaseline(policies));

    std::vector<std::string> header = {"Benchmark"};
    for (const auto &p : policies)
        header.push_back(p);
    util::Table table(header);

    std::vector<std::vector<double>> ratios(policies.size());
    for (const auto &w : workloads) {
        const auto &base = sim::findCell(cells, w, "LRU");
        std::vector<std::string> row = {w};
        for (size_t p = 0; p < policies.size(); ++p) {
            const auto &cell =
                sim::findCell(cells, w, policies[p]);
            const double ratio = stats::speedup(
                cell.result.ipc(), base.result.ipc());
            ratios[p].push_back(ratio);
            row.push_back(util::Table::fmt(
                100.0 * (ratio - 1.0), 2));
        }
        table.addRow(row);
    }
    std::vector<std::string> overall = {"Overall (geomean)"};
    for (size_t p = 0; p < policies.size(); ++p) {
        overall.push_back(util::Table::fmt(
            100.0 * (stats::geomean(ratios[p]) - 1.0), 2));
    }
    table.addRow(overall);

    std::printf("=== %s ===\n", title.c_str());
    std::puts("(IPC speedup over LRU, %)");
    emit(opt, table);
}

/**
 * Build @p count random 4-workload mixes from @p names (seeded,
 * reproducible) — the paper's multicore methodology with a
 * configurable mix count.
 */
inline std::vector<std::vector<std::string>>
makeMixes(const std::vector<std::string> &names, size_t count,
          uint64_t seed)
{
    util::Rng rng(seed ^ 0x4d495845ULL); // "MIXE"
    std::vector<std::vector<std::string>> mixes;
    for (size_t m = 0; m < count; ++m) {
        std::vector<std::string> mix;
        for (int c = 0; c < 4; ++c)
            mix.push_back(
                names[rng.nextBounded(names.size())]);
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

/** One (mix, policy) result of a multicore sweep. */
struct MixCell
{
    size_t mix;
    std::string policy;
    sim::RunResult result;
};

/** Display label of mix @p m: "mix0(wlA+wlB+...)". */
inline std::string
mixLabel(size_t m, const std::vector<std::string> &mix)
{
    std::string label = "mix" + std::to_string(m) + "(";
    for (size_t c = 0; c < mix.size(); ++c) {
        if (c)
            label += '+';
        label += mix[c];
    }
    return label + ")";
}

/**
 * Run every (mix, policy) pair through the SweepRunner (same
 * fault isolation, telemetry, and --json recording as runSweep).
 */
inline std::vector<MixCell>
multicoreSweep(const BenchOptions &opt,
               const std::vector<std::vector<std::string>> &mixes,
               const std::vector<std::string> &policies)
{
    std::vector<sim::SweepRunner::CellSpec> specs;
    for (size_t m = 0; m < mixes.size(); ++m)
        for (const auto &p : policies)
            specs.push_back(sim::SweepRunner::CellSpec{
                mixLabel(m, mixes[m]), p, mixes[m]});
    sim::SweepRunner runner(opt.params,
                            detail::nextSweepOptions(opt));
    const auto sweep_cells = runner.runCells(std::move(specs));
    detail::sweepStats() += runner.stats();
    detail::collectedCells().insert(detail::collectedCells().end(),
                                    sweep_cells.begin(),
                                    sweep_cells.end());

    std::vector<MixCell> cells;
    cells.reserve(sweep_cells.size());
    for (size_t i = 0; i < sweep_cells.size(); ++i) {
        cells.push_back(MixCell{i / policies.size(),
                                sweep_cells[i].policy,
                                sweep_cells[i].result});
    }
    return cells;
}

/** Find a multicore cell. */
inline const MixCell &
findMixCell(const std::vector<MixCell> &cells, size_t mix,
            const std::string &policy)
{
    for (const auto &c : cells)
        if (c.mix == mix && c.policy == policy)
            return c;
    util::fatal("mix cell ({}, {}) not found", mix, policy);
}

} // namespace rlr::bench

#endif // RLR_BENCH_COMMON_HH
