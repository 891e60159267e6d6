/**
 * @file
 * Regenerates Figure 7: recency distribution of the RL agent's
 * victims (0 = LRU .. 15 = MRU). The paper's takeaway: the agent
 * prefers evicting recently used lines, which becomes RLR's
 * most-recent tie-break.
 */

#include "bench/common.hh"
#include "ml/analysis.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    auto parser = bench::makeParser(
        "Figure 7: victim recency distribution (agent sim)");
    if (!parser.parse(argc, argv))
        return 0;
    auto opt = bench::makeOptions(parser);

    auto workloads = opt.workloads;
    if (workloads.empty())
        workloads = bench::trainingNames();

    std::vector<std::string> header = {"Benchmark"};
    for (int r = 0; r < 16; ++r)
        header.push_back(std::to_string(r));
    util::Table table(header);
    std::vector<std::vector<std::string>> rows(workloads.size());
    std::vector<double> mru_share(workloads.size(), 0.0);

    util::parallelFor(
        workloads.size(), opt.threads, [&](size_t i) {
            sim::SimParams p = opt.params;
            p.sim_instructions = opt.rl_instructions;
            const auto trace =
                sim::captureLlcTrace(workloads[i], p);
            if (trace.empty())
                return;
            ml::OfflineSimulator osim(ml::OfflineConfig{}, &trace);
            ml::AgentConfig cfg;
            cfg.seed = opt.seed + 41 * i;
            ml::trainAgent(osim, cfg, 1); // victim stats need no convergence
            const auto &fs = osim.featureStats();
            double total = 0.0;
            for (const auto v : fs.victim_recency)
                total += static_cast<double>(v);
            std::vector<std::string> row = {workloads[i]};
            double upper_half = 0.0;
            for (size_t r = 0; r < fs.victim_recency.size();
                 ++r) {
                const double pct =
                    total > 0 ? 100.0 *
                                    static_cast<double>(
                                        fs.victim_recency[r]) /
                                    total
                              : 0.0;
                if (r >= fs.victim_recency.size() / 2)
                    upper_half += pct;
                row.push_back(util::Table::fmt(pct, 1));
            }
            rows[i] = std::move(row);
            mru_share[i] = upper_half;
        });

    for (auto &row : rows)
        if (!row.empty())
            table.addRow(row);

    std::puts("=== Figure 7: victim recency (% of victims; 0 = "
              "LRU, 15 = MRU) ===");
    bench::emit(opt, table);
    double avg = 0.0;
    size_t n = 0;
    for (const auto v : mru_share) {
        if (v > 0) {
            avg += v;
            ++n;
        }
    }
    std::printf("\nShare of victims in the MRU half (recency "
                ">= 8), mean over benchmarks: %.1f%%\n",
                n ? avg / static_cast<double>(n) : 0.0);
    std::puts("Paper's shape: evictions skew toward high recency "
              "values (most recently used lines).");
    return 0;
}
