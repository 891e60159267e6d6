#include "sim/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <utility>

#include <unistd.h>

#include "obs/chrome_trace.hh"
#include "obs/heartbeat.hh"
#include "obs/resource.hh"
#include "sim/journal.hh"
#include "stats/export.hh"
#include "util/atomic_file.hh"
#include "util/cancel_token.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

#ifndef RLR_GIT_DESCRIBE
#define RLR_GIT_DESCRIBE "unknown"
#endif

namespace rlr::sim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t
nowMillis()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** FNV-1a over the label; stable across platforms and runs. */
uint64_t
hashLabel(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** splitmix64 finalizer: decorrelates nearby seeds. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// Shared JSON primitives (stats/export.hh).
using stats::json::escape;
using stats::json::number;

// ---- signal drain -----------------------------------------------
//
// The handler only records the signal number; the sweep's monitor
// thread notices the flag and performs the actual drain (cancel
// in-flight cells, skip pending ones). The flag is process-global
// and sticky, so once a drain starts every later sweep in the same
// process drains immediately too — Ctrl-C stops the whole bench,
// not just the current figure.

std::atomic<int> g_signal_caught{0};
std::atomic<bool> g_sweep_interrupted{false};

void
sweepSignalHandler(int signo)
{
    g_signal_caught.store(signo, std::memory_order_relaxed);
    // A second signal kills the process the default way.
    std::signal(signo, SIG_DFL);
}

/** Installs drain handlers for the sweep; restores on scope exit. */
class SignalGuard
{
  public:
    explicit SignalGuard(bool enable) : active_(enable)
    {
        if (!active_)
            return;
        struct sigaction sa = {};
        sa.sa_handler = sweepSignalHandler;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGINT, &sa, &old_int_);
        sigaction(SIGTERM, &sa, &old_term_);
    }
    ~SignalGuard()
    {
        if (!active_)
            return;
        sigaction(SIGINT, &old_int_, nullptr);
        sigaction(SIGTERM, &old_term_, nullptr);
    }
    SignalGuard(const SignalGuard &) = delete;
    SignalGuard &operator=(const SignalGuard &) = delete;

  private:
    bool active_;
    struct sigaction old_int_ = {};
    struct sigaction old_term_ = {};
};

/** Per-cell watchdog state shared with the monitor. */
struct CellSlot
{
    util::CancelToken token;
    /** Deadline in steady-clock millis; -1 = no cell armed. */
    std::atomic<int64_t> deadline_ms{-1};
};

/** Raise the configured fault before the cell body runs. */
void
injectFault(FaultKind fault, const util::CancelToken &token)
{
    switch (fault) {
      case FaultKind::None:
      case FaultKind::AbortProcess:   // handled before the cell runs
      case FaultKind::CorruptJournal: // handled at journal time
        return;
      case FaultKind::Throw:
        throw std::runtime_error("injected fault: throw");
      case FaultKind::Hang:
        // Block exactly like a wedged simulation would: the only
        // way out is the cooperative cancel token (watchdog
        // timeout or signal drain).
        while (!token.cancelled()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        throw util::CancelledError(token.reason());
    }
}

/**
 * Age past which an in-flight marker left by an earlier run counts
 * as stale: its cell died with the process that started it.
 */
constexpr double kStaleMarkerS = 10.0;

/**
 * Journal open + resume: verify the header, mark every cell an
 * earlier run committed ok resumed (a failed record re-runs), reap
 * stale in-flight markers, and fill @p hashes. @return nullptr
 * when the sweep has no journal.
 */
std::unique_ptr<SweepJournal>
openJournal(const SimParams &params, const SweepOptions &opts,
            const std::vector<SweepRunner::CellSpec> &specs,
            std::vector<SweepCell> &cells,
            std::vector<uint64_t> &hashes, size_t &reaped_markers)
{
    if (opts.journal_dir.empty())
        return nullptr;
    const size_t n = specs.size();
    for (size_t i = 0; i < n; ++i)
        hashes[i] = SweepJournal::specHash(specs[i], cells[i].seed);
    JournalHeader header;
    header.master_seed = params.seed;
    header.config_hash = sweepConfigHash(params, specs);
    header.build = RLR_GIT_DESCRIBE;
    header.writer =
        util::format("pid {}", static_cast<long>(::getpid()));
    header.n_cells = n;
    std::unique_ptr<SweepJournal> journal;
    try {
        journal =
            std::make_unique<SweepJournal>(opts.journal_dir, header);
    } catch (const std::exception &e) {
        util::fatal("{}", e.what());
    }
    if (params.llc_events_capacity > 0) {
        util::warn("--journal does not persist LLC event logs; "
                   "resumed cells carry empty events");
    }
    for (size_t i = 0; i < n; ++i) {
        SweepCell record;
        if (journal->load(hashes[i], specs[i], cells[i].seed,
                          record) &&
            record.ok()) {
            cells[i] = std::move(record);
            cells[i].resumed = true;
        }
    }
    // In-flight markers older than kStaleMarkerS (or covered by a
    // record) are breadcrumbs of cells a crashed run never
    // finished.
    reaped_markers = journal->reapStaleMarkers(kStaleMarkerS);
    if (reaped_markers > 0) {
        util::warn("reaped {} stale in-flight marker{} in '{}'",
                   reaped_markers, reaped_markers == 1 ? "" : "s",
                   journal->dir());
    }
    return journal;
}

/**
 * The claim and commit ends of the sweep's one worker loop: per-cell
 * claim states under one mutex hand each cell to exactly one thread.
 */
class CellClaims
{
  public:
    CellClaims(std::vector<SweepCell> &cells,
               const std::vector<uint64_t> &hashes,
               SweepJournal *journal)
        : cells_(cells), hashes_(hashes), journal_(journal),
          state_(cells.size(), State::Open)
    {
        for (size_t i = 0; i < cells.size(); ++i)
            if (cells[i].resumed)
                state_[i] = State::Settled;
    }

    /** Claim the next open cell into @p cell. @return false when
     *  draining or when no open cell remains. */
    bool
    next(size_t &cell, const std::atomic<bool> &draining)
    {
        if (draining.load(std::memory_order_relaxed))
            return false;
        std::lock_guard<std::mutex> lk(mu_);
        for (size_t i = 0; i < state_.size(); ++i) {
            if (state_[i] == State::Open) {
                state_[i] = State::Claimed;
                cell = i;
                return true;
            }
        }
        return false;
    }

    /** Journal and settle a finished cell. */
    void
    commit(size_t i, const SweepCell &cell, bool corrupt_record)
    {
        if (journal_)
            journal_->append(hashes_[i], cell, corrupt_record);
        std::lock_guard<std::mutex> lk(mu_);
        state_[i] = State::Settled;
    }

    /**
     * The drain pass, after the workers joined: label every
     * unsettled cell that has no outcome yet (never claimed)
     * "cancelled: signal". @return how many it labelled.
     */
    uint64_t
    labelUnsettled()
    {
        uint64_t labelled = 0;
        for (size_t i = 0; i < state_.size(); ++i) {
            if (state_[i] != State::Settled &&
                cells_[i].error.empty()) {
                cells_[i].error = "cancelled: signal";
                ++labelled;
            }
        }
        return labelled;
    }

  private:
    enum class State : uint8_t { Open, Claimed, Settled };

    std::vector<SweepCell> &cells_;
    const std::vector<uint64_t> &hashes_;
    SweepJournal *journal_;

    std::mutex mu_;
    std::vector<State> state_;
};

/** The monitor thread: every 20 ms until @p stop, turn a caught
 *  signal into a drain and cancel cells past their watchdog
 *  deadline. */
void
monitorLoop(const SweepOptions &opts, std::vector<CellSlot> &slots,
            std::atomic<bool> &draining, const std::stop_token &stop)
{
    using Reason = util::CancelToken::Reason;
    while (!stop.stop_requested()) {
        const int sig =
            g_signal_caught.load(std::memory_order_relaxed);
        if (opts.handle_signals && sig != 0) {
            if (!draining.exchange(true)) {
                g_sweep_interrupted.store(true);
                // Serialized with the progress status line by the
                // logging hook's mutex.
                util::warn("sweep caught signal {}: draining "
                           "(cancelling in-flight cells, keeping "
                           "journal + partial JSON)",
                           sig);
            }
            // Re-cancel every poll: cells armed in the race
            // window still get the signal reason.
            for (auto &slot : slots)
                slot.token.cancel(Reason::Signal);
        }
        if (opts.cell_timeout_s > 0.0) {
            const int64_t now = nowMillis();
            for (auto &slot : slots) {
                const int64_t deadline =
                    slot.deadline_ms.load(std::memory_order_relaxed);
                if (deadline >= 0 && now > deadline)
                    slot.token.cancel(Reason::Timeout);
            }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }
}

} // namespace

SweepRunner::SweepRunner(SimParams params, SweepOptions opts)
    : params_(std::move(params)), opts_(std::move(opts))
{
}

uint64_t
SweepRunner::cellSeed(uint64_t master_seed,
                      const std::string &workload)
{
    return mix64(master_seed ^ hashLabel(workload));
}

int
SweepRunner::exitCode(bool interrupted, bool any_failed)
{
    if (interrupted)
        return 130;
    if (any_failed)
        return 1;
    return 0;
}

bool
SweepRunner::interrupted()
{
    return g_sweep_interrupted.load(std::memory_order_relaxed);
}

std::vector<SweepCell>
SweepRunner::run(const std::vector<std::string> &workloads,
                 const std::vector<std::string> &policies)
{
    std::vector<CellSpec> specs;
    specs.reserve(workloads.size() * policies.size());
    for (const auto &w : workloads)
        for (const auto &p : policies)
            specs.push_back(CellSpec{w, p, {w}});
    return runCells(std::move(specs));
}

std::vector<SweepCell>
SweepRunner::runCells(std::vector<CellSpec> specs)
{
    const size_t n = specs.size();
    std::vector<SweepCell> cells(n);
    for (size_t i = 0; i < n; ++i) {
        cells[i].workload = specs[i].workload;
        cells[i].policy = specs[i].policy;
        cells[i].seed = cellSeed(params_.seed, specs[i].workload);
    }

    std::vector<uint64_t> hashes(n, 0);
    size_t reaped_markers = 0;
    const std::unique_ptr<SweepJournal> journal = openJournal(
        params_, opts_, specs, cells, hashes, reaped_markers);
    const auto resumed = static_cast<size_t>(
        std::count_if(cells.begin(), cells.end(),
                      [](const SweepCell &c) { return c.resumed; }));

    std::unique_ptr<obs::HeartbeatWriter> heartbeat;
    if (!opts_.heartbeat_path.empty()) {
        heartbeat = std::make_unique<obs::HeartbeatWriter>(
            opts_.heartbeat_path, opts_.heartbeat_period_s, n,
            resumed);
    }

    std::vector<CellSlot> slots(n);
    std::atomic<uint64_t> timeout_count{0};
    std::atomic<uint64_t> failed_count{0};
    std::atomic<uint64_t> cancelled_count{0};
    std::atomic<uint64_t> completed_count{0};
    CellClaims claims(cells, hashes, journal.get());

    std::atomic<bool> draining{false};
    SignalGuard signal_guard(opts_.handle_signals);
    // A sweep in an already-interrupted process drains at once.
    if (opts_.handle_signals &&
        g_signal_caught.load(std::memory_order_relaxed) != 0) {
        draining.store(true);
        g_sweep_interrupted.store(true);
    }
    // Joined on scope exit, so also when a worker throws.
    std::jthread monitor;
    if (resumed < n &&
        (opts_.handle_signals || opts_.cell_timeout_s > 0.0)) {
        monitor = std::jthread([&](std::stop_token stop) {
            monitorLoop(opts_, slots, draining, stop);
        });
    }

    const auto sweep_start = Clock::now();
    std::atomic<size_t> done{resumed};
    auto bump_progress = [&] {
        const size_t n_done = done.fetch_add(1) + 1;
        if (!opts_.progress)
            return;
        const double elapsed = secondsSince(sweep_start);
        const size_t fresh = n_done - resumed;
        const double eta =
            fresh == 0 ? 0.0
                       : elapsed / static_cast<double>(fresh) *
                             static_cast<double>(n - n_done);
        // Sticky status line: worker log messages erase/repaint
        // it through the logging mutex instead of interleaving.
        util::setStatusLine(util::format(
            "[sweep] {}/{} cells ({} resumed), {:.1f}s elapsed, "
            "eta {:.1f}s", n_done, n, resumed, elapsed, eta));
    };

    // Execute one claimed cell, then commit it.
    auto run_one = [&](size_t i) {
        SweepCell &cell = cells[i];
        const CellSpec &spec = specs[i];
        CellSlot &slot = slots[i];
        const std::string label =
            spec.workload + ":" + spec.policy;
        const FaultKind fault =
            opts_.faults.actionFor(i, label, cell.seed);

        // Deterministic crash for the crash/resume harness: die
        // the instant this cell is reached, no flushing.
        if (fault == FaultKind::AbortProcess &&
            !draining.load(std::memory_order_relaxed)) {
            std::raise(SIGKILL);
        }

        SimParams p = params_;
        p.llc_policy = cell.policy;
        p.seed = cell.seed;
        p.cancel = &slot.token;

        const auto cell_start = Clock::now();
        cell.start_seconds = secondsSince(sweep_start);
        const obs::ResourceSample res_start =
            obs::ResourceSample::now(
                obs::ResourceSample::Scope::Thread);
        bool signal_cancelled = false;
        if (draining.load(std::memory_order_relaxed)) {
            cell.error = "cancelled: signal";
            signal_cancelled = true;
        } else {
            if (heartbeat)
                heartbeat->cellStarted(label);
            if (journal)
                journal->markInFlight(hashes[i], spec);
            if (opts_.cell_timeout_s > 0.0) {
                slot.deadline_ms.store(
                    nowMillis() +
                        static_cast<int64_t>(
                            opts_.cell_timeout_s * 1000.0),
                    std::memory_order_relaxed);
            }
            try {
                injectFault(fault, slot.token);
                cell.result = cell_fn_
                                  ? cell_fn_(spec, p)
                                  : runWorkloads(spec.cores, p);
            } catch (const util::CancelledError &e) {
                using Reason = util::CancelToken::Reason;
                if (e.reason() == Reason::Signal) {
                    cell.error = "cancelled: signal";
                    signal_cancelled = true;
                } else if (e.reason() == Reason::Timeout) {
                    // Derived from the flag value, not measured
                    // time, so resumed exports stay byte-equal.
                    cell.error = util::format(
                        "timeout: attempt exceeded "
                        "--cell-timeout {}s",
                        number(opts_.cell_timeout_s));
                    cell.timed_out = true;
                    timeout_count.fetch_add(1);
                } else {
                    cell.error = e.what();
                }
            } catch (const std::exception &e) {
                cell.error = e.what();
            } catch (...) {
                cell.error = "unknown exception";
            }
            slot.deadline_ms.store(-1, std::memory_order_relaxed);
        }

        cell.wall_seconds = secondsSince(cell_start);
        if (cell.ok() && cell.wall_seconds > 0.0) {
            cell.mips = static_cast<double>(
                            cell.result.total_instructions) /
                        cell.wall_seconds / 1e6;
        }
        const obs::ResourceSample res_delta =
            obs::ResourceSample::now(
                obs::ResourceSample::Scope::Thread)
                .deltaFrom(res_start);
        cell.cpu_user_s = res_delta.cpu_user_s;
        cell.cpu_sys_s = res_delta.cpu_sys_s;
        cell.max_rss_kb = res_delta.max_rss_kb;
        cell.minor_faults = res_delta.minor_faults;
        if (heartbeat)
            heartbeat->cellFinished(cell.ok());

        if (signal_cancelled) {
            // Not a final outcome: the cell stays claimed, so no
            // sibling runs it, and it re-runs on resume.
            cancelled_count.fetch_add(1);
        } else {
            claims.commit(i, cell,
                          fault == FaultKind::CorruptJournal);
            completed_count.fetch_add(1);
            if (!cell.ok())
                failed_count.fetch_add(1);
            bump_progress();
        }
    };

    // ---- the worker loop: claim -> execute -> commit ------------
    auto worker = [&](size_t) {
        size_t i = 0;
        while (claims.next(i, draining))
            run_one(i);
    };
    util::parallelFor(
        std::min(std::max<size_t>(opts_.threads, 1), n - resumed),
        opts_.threads, worker);
    monitor.request_stop();
    if (monitor.joinable())
        monitor.join();

    // A drain leaves cells unsettled; label them so the export and
    // exit status reflect the interruption.
    cancelled_count += claims.labelUnsettled();
    if (heartbeat)
        heartbeat->finish();

    if (opts_.progress)
        util::finishStatusLine();

    sweep_stats_ = SweepStats{.completed_cells = completed_count,
                              .resumed_cells = resumed,
                              .timeouts = timeout_count,
                              .failed_cells = failed_count,
                              .cancelled_cells = cancelled_count,
                              .reaped_markers = reaped_markers};

    if (opts_.stable_telemetry) {
        // Leave only seed-determined fields in the export.
        for (auto &cell : cells) {
            cell.start_seconds = 0.0;
            cell.wall_seconds = 0.0;
            cell.mips = 0.0;
            cell.cpu_user_s = 0.0;
            cell.cpu_sys_s = 0.0;
            cell.max_rss_kb = 0;
            cell.minor_faults = 0;
        }
    }
    if (!opts_.json_path.empty())
        writeJson(opts_.json_path, cells);
    return cells;
}

bool
SweepRunner::anyFailed(const std::vector<SweepCell> &cells)
{
    for (const auto &c : cells)
        if (!c.ok())
            return true;
    return false;
}

util::Table
SweepRunner::errorTable(const std::vector<SweepCell> &cells)
{
    util::Table table({"Workload", "Policy", "Error"});
    for (const auto &c : cells)
        if (!c.ok())
            table.addRow({c.workload, c.policy, c.error});
    return table;
}

std::string
SweepRunner::toJson(const std::vector<SweepCell> &cells)
{
    std::string out = "[\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &c = cells[i];
        out += "  {";
        out += util::format("\"workload\": \"{}\", ",
                            escape(c.workload));
        out += util::format("\"policy\": \"{}\", ",
                            escape(c.policy));
        out += util::format("\"seed\": {}, ", c.seed);
        if (c.ok()) {
            out += util::format(
                "\"hit_rate\": {}, ",
                number(c.result.llcDemandHitRate()));
            out += util::format(
                "\"mpki\": {}, ", number(c.result.llcDemandMpki()));
            out += util::format("\"ipc\": {}, ",
                                number(c.result.ipc()));
            out += util::format("\"instructions\": {}, ",
                                c.result.total_instructions);
            // Per-core outcomes (fig13-style weighted speedups
            // need every core's IPC, not just core 0's).
            out += "\"cores\": [";
            for (size_t k = 0; k < c.result.cores.size(); ++k) {
                const CoreResult &core = c.result.cores[k];
                if (k)
                    out += ", ";
                out += util::format(
                    "{{\"workload\": \"{}\", \"ipc\": {}, "
                    "\"instructions\": {}}}",
                    escape(core.workload), number(core.ipc),
                    core.instructions);
            }
            out += "], ";
            // Full registry snapshot (counters/formulas/
            // histograms) of the simulated system.
            if (!c.result.stats.empty()) {
                std::string snap = stats::toJson(c.result.stats);
                while (!snap.empty() && snap.back() == '\n')
                    snap.pop_back();
                out += "\"stats\": " + snap + ", ";
            }
        } else {
            out += "\"hit_rate\": null, \"mpki\": null, "
                   "\"ipc\": null, \"instructions\": null, "
                   "\"cores\": [], ";
        }
        out += util::format("\"runtime_s\": {}, ",
                            number(c.wall_seconds));
        out += util::format("\"mips\": {}, ", number(c.mips));
        out += util::format("\"cpu_user_s\": {}, ",
                            number(c.cpu_user_s));
        out += util::format("\"cpu_sys_s\": {}, ",
                            number(c.cpu_sys_s));
        out += util::format("\"max_rss_kb\": {}, ",
                            c.max_rss_kb);
        out += util::format("\"minor_faults\": {}, ",
                            c.minor_faults);
        out += c.ok() ? "\"error\": null"
                      : util::format("\"error\": \"{}\"",
                                     escape(c.error));
        out += i + 1 < cells.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    return out;
}

namespace
{

/** One schedule slice per cell, before lane packing. */
std::vector<obs::TraceSpan>
cellTraceSpans(const std::vector<SweepCell> &cells)
{
    std::vector<obs::TraceSpan> spans;
    spans.reserve(cells.size());
    for (const SweepCell &c : cells) {
        obs::TraceSpan s;
        s.name = c.workload + "/" + c.policy;
        s.category = c.ok() ? "cell" : "cell,error";
        s.start_us =
            static_cast<uint64_t>(c.start_seconds * 1e6);
        s.duration_us =
            static_cast<uint64_t>(c.wall_seconds * 1e6);
        s.args.emplace_back("workload",
                            "\"" + escape(c.workload) + "\"");
        s.args.emplace_back("policy",
                            "\"" + escape(c.policy) + "\"");
        s.args.emplace_back("seed", util::format("{}", c.seed));
        s.args.emplace_back("mips", number(c.mips));
        if (!c.ok()) {
            s.args.emplace_back("error",
                                "\"" + escape(c.error) + "\"");
        }
        spans.push_back(std::move(s));
    }
    return spans;
}

} // namespace

std::string
SweepRunner::chromeTraceJson(const std::vector<SweepCell> &cells)
{
    std::vector<obs::TraceSpan> spans = cellTraceSpans(cells);
    obs::assignLanes(spans);
    return obs::chromeTraceJson(spans, "sweep");
}

void
SweepRunner::writeJson(const std::string &path,
                       const std::vector<SweepCell> &cells)
{
    util::atomicWriteFileOrFatal(path, toJson(cells));
}

} // namespace rlr::sim
