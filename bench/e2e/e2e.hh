/**
 * @file
 * Workloads and measurement plumbing shared by sim_e2e (untraced
 * end-to-end metrics) and sim_e2e_trace (per-layer metrics). See
 * bench/e2e/README.md for the metric definitions.
 *
 * Every cell runs through sim::SweepRunner with a timing wrapper
 * around the cell body, so both binaries measure the path the
 * figure harnesses use.
 */

#ifndef RLR_BENCH_E2E_E2E_HH
#define RLR_BENCH_E2E_E2E_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"

namespace rlr::e2e
{

using Clock = std::chrono::steady_clock;
using CellSpec = sim::SweepRunner::CellSpec;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One benchmark workload: a fixed cell list and its run lengths. */
struct Workload
{
    std::string name;
    std::vector<CellSpec> cells;
    /** Warm-up and measured instructions per core. */
    uint64_t warmup = 0;
    uint64_t instructions = 0;
    size_t threads = 1;
    /** Give every repetition a fresh sweep journal. */
    bool journal = false;
};

inline std::vector<CellSpec>
grid(const std::vector<std::string> &profiles,
     const std::vector<std::string> &policies)
{
    std::vector<CellSpec> cells;
    for (const auto &w : profiles)
        for (const auto &p : policies)
            cells.push_back(CellSpec{w, p, {w}});
    return cells;
}

/**
 * The named workload; throws std::invalid_argument when unknown.
 * @param tiny divide run lengths by 100 (structural smoke test)
 */
inline Workload
makeWorkload(const std::string &name, bool tiny)
{
    Workload w;
    w.name = name;
    if (name == "resident-1c") {
        // Core, generator and L1 do almost all the work: these
        // profiles never fill the LLC, so an LLC or DRAM change
        // must show no movement here.
        w.cells = grid({"416.gamess", "456.hmmer", "453.povray",
                        "445.gobmk"},
                       {"LRU", "DRRIP", "RLR"});
        w.warmup = 300'000;
        w.instructions = 1'200'000;
    } else if (name == "membound-1c") {
        // Pointer-chase, thrash, streaming and strided patterns
        // (LLC MPKI 15-67): the L2, LLC, policy and DRAM layers
        // carry the most work, and RLR and LRU diverge. Shorter than
        // resident-1c so a 25 s run still times 100 or more cells.
        w.cells = grid({"429.mcf", "471.omnetpp", "470.lbm",
                        "450.soplex"},
                       {"LRU", "DRRIP", "RLR"});
        w.warmup = 300'000;
        w.instructions = 800'000;
    } else if (name == "mix-4c") {
        // An 8 MB shared LLC under contention, four generators, and
        // runWorkloads' 64-instruction quantum scheduler, which
        // single-core cells bypass. The mixes are fixed, not drawn
        // from --seed, so every seed measures the same profiles and
        // only the access streams change.
        const std::vector<std::vector<std::string>> mixes = {
            {"429.mcf", "416.gamess", "470.lbm", "456.hmmer"},
            {"471.omnetpp", "453.povray", "450.soplex", "445.gobmk"},
            {"483.xalancbmk", "403.gcc", "435.gromacs", "444.namd"},
            {"433.milc", "437.leslie3d", "459.GemsFDTD",
             "400.perlbench"},
            {"482.sphinx3", "447.dealII", "429.mcf", "458.sjeng"},
            {"471.omnetpp", "470.lbm", "465.tonto", "481.wrf"},
        };
        for (size_t m = 0; m < mixes.size(); ++m) {
            std::string label = "mix" + std::to_string(m);
            for (const auto &p : {"LRU", "RLR"})
                w.cells.push_back(CellSpec{label, p, mixes[m]});
        }
        w.warmup = 50'000;
        w.instructions = 200'000;
    } else if (name == "sweep-short") {
        // Many short cells: per-cell set-up, stats snapshots,
        // journal writes beside compute, and thread-pool balance
        // dominate. Hawkeye covers the generic (virtual) dispatch
        // path. Two threads: four swung the sweep time 3x on a
        // 4-core host shared with other jobs.
        w.cells = grid({"416.gamess", "456.hmmer", "453.povray",
                        "445.gobmk", "435.gromacs", "454.calculix",
                        "429.mcf", "471.omnetpp", "470.lbm",
                        "450.soplex", "483.xalancbmk", "433.milc"},
                       {"LRU", "SRRIP", "SHiP", "RLR", "Hawkeye"});
        w.warmup = 20'000;
        w.instructions = 80'000;
        w.threads = 2;
        w.journal = true;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    if (tiny) {
        w.warmup /= 100;
        w.instructions /= 100;
    }
    return w;
}

/** Simulated instructions (warm-up plus measured) of one cell. */
inline double
cellInstructions(const Workload &w, const CellSpec &cell)
{
    return static_cast<double>(cell.cores.size()) *
           static_cast<double>(w.warmup + w.instructions);
}

/** Command line shared by both binaries. */
struct Options
{
    std::string workload;
    uint64_t seed = 42;
    /** Run length: repetitions start while time remains. */
    double seconds = 25.0;
    /** Detailed JSON report path (optional). */
    std::string json;
    bool tiny = false;
};

[[noreturn]] inline void
usage(const char *prog, const std::string &error)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload <name> [--seed S] "
                 "[--seconds T] [--json OUT] [--tiny]\n",
                 prog, error.c_str(), prog);
    std::exit(2);
}

inline Options
parseOptions(int argc, char **argv)
{
    Options o;
    const char *prog = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(prog, "missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = value;
            else if (arg == "--seed")
                o.seed = std::stoull(value);
            else if (arg == "--seconds")
                o.seconds = std::stod(value);
            else if (arg == "--json")
                o.json = value;
            else
                usage(prog, "unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage(prog, "bad value '" + value + "' for " + arg);
        }
    }
    if (o.workload.empty())
        usage(prog, "--workload is required");
    return o;
}

/**
 * Repeat @p rep (called with the repetition index) while the run
 * has time left for one more; at least once. The time limit covers
 * everything since @p start.
 */
template <class F>
int
repeatFor(const Options &o, Clock::time_point start, F &&rep)
{
    int r = 0;
    double last = 0.0;
    do {
        const auto t0 = Clock::now();
        rep(r++);
        last = secondsSince(t0);
    } while (secondsSince(start) + last <= o.seconds);
    return r;
}

/** Host seconds of one set-up of each cell: runWorkloads with zero
 *  warm-up and zero measured instructions. */
inline std::vector<double>
setupSeconds(const Workload &w, uint64_t seed)
{
    std::vector<double> seconds;
    for (const auto &cell : w.cells) {
        sim::SimParams p;
        p.warmup_instructions = 0;
        p.sim_instructions = 0;
        p.llc_policy = cell.policy;
        p.seed = sim::SweepRunner::cellSeed(seed, cell.workload);
        const auto t0 = Clock::now();
        sim::runWorkloads(cell.cores, p);
        seconds.push_back(secondsSince(t0));
    }
    return seconds;
}

/** One repetition of a workload's cell list. */
struct Rep
{
    /** In cell-list order. */
    std::vector<sim::SweepCell> cells;
    /** Host seconds of each cell's body (0 when it threw). */
    std::vector<double> cell_s;
    /** Host seconds of the whole SweepRunner::runCells call. */
    double wall_s = 0.0;
};

/**
 * Run every cell of @p w once through SweepRunner, timing each
 * call of @p body (runWorkloads, or the traced mirror).
 * @param journal_dir fresh journal directory (journaled workloads)
 */
inline Rep
runRep(const Workload &w, uint64_t seed, const std::string &journal_dir,
       const sim::SweepRunner::CellFn &body)
{
    sim::SimParams params;
    params.warmup_instructions = w.warmup;
    params.sim_instructions = w.instructions;
    params.seed = seed;
    sim::SweepOptions opts;
    opts.threads = w.threads;
    opts.stable_telemetry = true;
    if (w.journal) {
        // A leftover journal would resume cells instead of running
        // them.
        std::filesystem::remove_all(journal_dir);
        opts.journal_dir = journal_dir;
    }
    sim::SweepRunner runner(params, opts);

    std::mutex mu;
    std::map<std::pair<std::string, std::string>, double> times;
    runner.setCellFn([&](const CellSpec &spec, const sim::SimParams &p) {
        const auto t0 = Clock::now();
        sim::RunResult result = body(spec, p);
        const double s = secondsSince(t0);
        std::lock_guard<std::mutex> lock(mu);
        times[{spec.workload, spec.policy}] = s;
        return result;
    });

    Rep rep;
    const auto t0 = Clock::now();
    rep.cells = runner.runCells(w.cells);
    rep.wall_s = secondsSince(t0);
    for (const auto &c : rep.cells)
        rep.cell_s.push_back(times[{c.workload, c.policy}]);
    if (w.journal)
        std::filesystem::remove_all(journal_dir);
    return rep;
}

inline std::string
journalDir(const Options &o, const char *pass, int rep)
{
    const std::string base = o.json.empty() ? "sim_e2e" : o.json;
    return base + ".journal-" + pass + "-" + std::to_string(rep);
}

/** FNV-1a 64-bit. */
inline uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Digest of the seed-determined cell export (no wall clocks). */
inline uint64_t
digest(const std::vector<sim::SweepCell> &cells)
{
    return fnv1a(sim::SweepRunner::toJson(cells));
}

/**
 * Cell outcomes over the repetitions of one seed. A cell fails when
 * it threw, simulated the wrong instruction count, or its digest
 * differs from the first repetition's.
 */
class CellCheck
{
  public:
    void
    check(const Workload &w, const Rep &rep)
    {
        digests_.resize(rep.cells.size(), 0);
        for (size_t i = 0; i < rep.cells.size(); ++i) {
            const sim::SweepCell &c = rep.cells[i];
            std::string err = c.error;
            if (err.empty() &&
                c.result.total_instructions !=
                    w.cells[i].cores.size() * w.instructions) {
                err = "measured instruction count " +
                      std::to_string(c.result.total_instructions);
            }
            if (err.empty()) {
                const uint64_t d = digest({c});
                if (digests_[i] == 0)
                    digests_[i] = d;
                else if (digests_[i] != d)
                    err = "stats digest differs between repetitions";
            }
            ++attempted_;
            if (!err.empty()) {
                ++failed_;
                if (errors_.size() < 20)
                    errors_.push_back(c.workload + ":" + c.policy + ": " +
                                      err);
            }
        }
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    std::vector<uint64_t> digests_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

/**
 * Quantile @p q of @p v by the "exclusive" method of Python's
 * statistics.quantiles, so quartiles here match the ones compare.py
 * and the acceptance checks compute.
 */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double h = std::clamp((n + 1.0) * q, 1.0, n);
    const auto lo = static_cast<size_t>(std::floor(h)) - 1;
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (h - std::floor(h)) * (v[hi] - v[lo]);
}

inline double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Named metrics, each reported as a value with the quartiles and
 * count of the samples it summarizes, plus extra facts ("info").
 */
class Report
{
  public:
    struct Summary
    {
        double value = 0.0;
        double q1 = 0.0;
        double q3 = 0.0;
        size_t n = 0;
    };

    /** Add one sample of @p name; its value is the samples' median. */
    void
    add(const std::string &name, const std::string &unit, double v)
    {
        entry(name, unit).samples.push_back(v);
    }

    /** A metric summarized by the caller. */
    void
    set(const std::string &name, const std::string &unit, Summary s)
    {
        entry(name, unit).fixed = s;
    }

    void
    info(const std::string &key, const std::string &json_value)
    {
        info_.emplace_back(key, json_value);
    }

    /** Sample summary of @p v: exclusive-method quartiles. */
    static Summary
    summarize(const std::vector<double> &v)
    {
        return Summary{quantile(v, 0.5), quantile(v, 0.25),
                       quantile(v, 0.75), v.size()};
    }

    std::string
    toJson(const Options &o, bool traced, const CellCheck &check) const
    {
        std::string out = "{\n  \"workload\": \"" + o.workload +
                          "\",\n  \"seed\": " + std::to_string(o.seed) +
                          ",\n  \"traced\": " +
                          (traced ? "true" : "false") +
                          ",\n  \"correct\": " +
                          (check.failed() == 0 ? "true" : "false") +
                          ",\n  \"attempted\": " +
                          std::to_string(check.attempted()) +
                          ",\n  \"failed\": " +
                          std::to_string(check.failed()) +
                          ",\n  \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            const Summary s = m.summary();
            out += (i ? ",\n    \"" : "\n    \"") + m.name +
                   "\": {\"unit\": \"" + m.unit +
                   "\", \"value\": " + number(s.value) +
                   ", \"q1\": " + number(s.q1) +
                   ", \"q3\": " + number(s.q3) +
                   ", \"n\": " + std::to_string(s.n) + "}";
        }
        out += "\n  },\n  \"info\": {";
        for (size_t i = 0; i < info_.size(); ++i) {
            out += (i ? ",\n    \"" : "\n    \"") + info_[i].first +
                   "\": " + info_[i].second;
        }
        out += "\n  },\n  \"errors\": [";
        for (size_t i = 0; i < check.errors().size(); ++i) {
            std::string e;
            for (const char c : check.errors()[i]) {
                if (c == '"' || c == '\\')
                    e += '\\';
                e += c >= 0x20 ? c : ' ';
            }
            out += (i ? ", \"" : "\"") + e + "\"";
        }
        return out + "]\n}\n";
    }

    /** Aligned table: name, unit, value, q1, q3, n. */
    std::string
    table() const
    {
        std::string out;
        char line[256];
        std::snprintf(line, sizeof line, "%-30s %-9s %14s %14s %14s %7s\n",
                      "metric", "unit", "value", "q1", "q3", "n");
        out += line;
        for (const Metric &m : metrics_) {
            const Summary s = m.summary();
            std::snprintf(line, sizeof line,
                          "%-30s %-9s %14.6g %14.6g %14.6g %7zu\n",
                          m.name.c_str(), m.unit.c_str(), s.value, s.q1,
                          s.q3, s.n);
            out += line;
        }
        for (const auto &[key, value] : info_)
            out += key + " = " + value + "\n";
        return out;
    }

  private:
    struct Metric
    {
        std::string name;
        std::string unit;
        std::vector<double> samples;
        Summary fixed;

        Summary
        summary() const
        {
            return samples.empty() ? fixed : summarize(samples);
        }
    };

    Metric &
    entry(const std::string &name, const std::string &unit)
    {
        for (Metric &m : metrics_)
            if (m.name == name)
                return m;
        metrics_.push_back(Metric{name, unit, {}, {}});
        return metrics_.back();
    }

    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
};

/**
 * Print the report, write it to --json, and list failed cells on
 * stderr. @return the exit status: 0 when every cell passed.
 */
inline int
finish(const Options &o, bool traced, const Report &report,
       const CellCheck &check)
{
    std::fputs(report.table().c_str(), stdout);
    std::fflush(stdout);
    if (!o.json.empty()) {
        std::ofstream out(o.json, std::ios::trunc);
        out << report.toJson(o, traced, check);
        if (!out.flush()) {
            std::fprintf(stderr, "cannot write %s\n", o.json.c_str());
            return 2;
        }
    }
    for (const auto &e : check.errors())
        std::fprintf(stderr, "failed cell %s\n", e.c_str());
    return check.failed() == 0 ? 0 : 1;
}

} // namespace rlr::e2e

#endif // RLR_BENCH_E2E_E2E_HH
