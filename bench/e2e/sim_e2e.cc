/**
 * @file
 * sim_e2e: end-to-end host throughput of whole sim::System cells,
 * measured untraced through sim::SweepRunner and sim::runWorkloads
 * only (bench/e2e/README.md).
 *
 *   sim_e2e --workload <name> [--seed S] [--seconds T] [--json OUT]
 *
 * Exit status: 0 when every cell passed, 1 when a cell failed,
 * 2 on a usage or I/O error.
 */

#include <cmath>
#include <exception>
#include <limits>
#include <map>
#include <numeric>

#include "e2e.hh"

namespace
{

using namespace rlr;

/** Set-up passes before the first repetition (one more precedes
 *  each repetition). */
constexpr int kSetupWarm = 3;

constexpr double kNever = std::numeric_limits<double>::infinity();

/** Geomean IPC speedup of RLR over LRU, in percent. */
double
rlrSpeedupPct(const std::vector<sim::SweepCell> &cells)
{
    std::map<std::string, const sim::SweepCell *> lru;
    for (const auto &c : cells)
        if (c.policy == "LRU" && c.ok())
            lru[c.workload] = &c;
    double log_sum = 0.0;
    size_t n = 0;
    for (const auto &c : cells) {
        if (c.policy != "RLR" || !c.ok() || !lru.count(c.workload))
            continue;
        log_sum += std::log(c.result.speedupOver(lru[c.workload]->result));
        ++n;
    }
    return n == 0 ? 0.0 : 100.0 * (std::exp(log_sum / n) - 1.0);
}

double
llcMpki(const std::vector<sim::SweepCell> &cells)
{
    double misses = 0.0;
    double instructions = 0.0;
    for (const auto &c : cells) {
        misses += static_cast<double>(c.result.llc_demand_misses);
        instructions += static_cast<double>(c.result.total_instructions);
    }
    return e2e::ratio(1000.0 * misses, instructions);
}

int
run(const e2e::Options &opt)
{
    const e2e::Workload w = e2e::makeWorkload(opt.workload, opt.tiny);
    const auto start = e2e::Clock::now();
    e2e::Report report;
    e2e::CellCheck check;

    // Other work on a shared host only ever adds time to these
    // deterministic cells, and on a 4-core VM it slowed a third of
    // all repetitions by up to 35%. So each cell's time is its
    // fastest repetition in the run: the estimate least disturbed by
    // the host. Quartiles describe the per-repetition values. Set-up
    // passes are spread over the run like the repetitions, so one
    // slow stretch of the host cannot cover all of them.
    const size_t n = w.cells.size();
    std::vector<double> setup_best(n, kNever);
    std::vector<double> setup_totals;
    auto setup_pass = [&] {
        const std::vector<double> s = e2e::setupSeconds(w, opt.seed);
        setup_totals.push_back(std::accumulate(s.begin(), s.end(), 0.0));
        for (size_t i = 0; i < n; ++i)
            setup_best[i] = std::min(setup_best[i], s[i]);
    };
    for (int k = 0; k < kSetupWarm; ++k)
        setup_pass();

    std::vector<double> best(n, kNever);
    std::vector<double> rep_mips;
    std::vector<double> walls;
    std::vector<sim::SweepCell> first;
    const int reps = e2e::repeatFor(opt, start, [&](int r) {
        setup_pass();
        e2e::Rep rep = e2e::runRep(
            w, opt.seed, e2e::journalDir(opt, "run", r),
            [](const e2e::CellSpec &spec, const sim::SimParams &p) {
                return sim::runWorkloads(spec.cores, p);
            });
        check.check(w, rep);
        double instructions = 0.0;
        double cell_s = 0.0;
        for (size_t i = 0; i < n; ++i) {
            if (!rep.cells[i].ok())
                continue;
            instructions += e2e::cellInstructions(w, w.cells[i]);
            cell_s += rep.cell_s[i];
            best[i] = std::min(best[i], rep.cell_s[i]);
        }
        rep_mips.push_back(e2e::ratio(instructions, cell_s) / 1e6);
        walls.push_back(rep.wall_s);
        if (r == 0)
            first = std::move(rep.cells);
    });

    double instructions = 0.0;
    double best_s = 0.0;
    std::vector<double> best_ms;
    for (size_t i = 0; i < n; ++i) {
        if (best[i] == kNever)
            continue; // failed in every repetition
        instructions += e2e::cellInstructions(w, w.cells[i]);
        best_s += best[i];
        best_ms.push_back(best[i] * 1e3);
    }
    auto q = [](const std::vector<double> &v, double p) {
        return e2e::quantile(v, p);
    };
    const auto cells = e2e::Report::summarize(best_ms);
    const double rss = e2e::peakRssMb();
    const double fail_ratio =
        e2e::ratio(static_cast<double>(check.failed()),
                   static_cast<double>(check.attempted()));
    report.set("sim_mips", "Minstr/s",
               {e2e::ratio(instructions, best_s) / 1e6, q(rep_mips, 0.25),
                q(rep_mips, 0.75), rep_mips.size()});
    report.set("wall_s", "s",
               {*std::min_element(walls.begin(), walls.end()),
                q(walls, 0.25), q(walls, 0.75), walls.size()});
    report.set("cell_ms_p50", "ms", cells);
    report.set("cell_ms_p90", "ms",
               {q(best_ms, 0.9), cells.q1, cells.q3, cells.n});
    report.set("setup_s", "s",
               {std::accumulate(setup_best.begin(), setup_best.end(), 0.0),
                q(setup_totals, 0.25), q(setup_totals, 0.75),
                setup_totals.size()});
    report.set("peak_rss_mb", "MB", {rss, rss, rss, 1});
    report.set("cell_fail_ratio", "ratio",
               {fail_ratio, fail_ratio, fail_ratio, check.attempted()});

    report.info("sim_digest", "\"" + e2e::hex(e2e::digest(first)) + "\"");
    report.info("rlr_speedup_pct", e2e::number(rlrSpeedupPct(first)));
    report.info("llc_mpki", e2e::number(llcMpki(first)));
    report.info("repetitions", std::to_string(reps));
    report.info("cells_per_repetition", std::to_string(w.cells.size()));
    return e2e::finish(opt, false, report, check);
}

} // namespace

int
main(int argc, char **argv)
{
    const rlr::e2e::Options opt = rlr::e2e::parseOptions(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sim_e2e: %s\n", e.what());
        return 2;
    }
}
