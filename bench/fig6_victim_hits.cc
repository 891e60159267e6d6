/**
 * @file
 * Regenerates Figure 6: fraction of the RL agent's victims that
 * had 0, 1, or more than 1 hit at eviction. The paper's takeaway:
 * most victims were never reused (>50% zero hits, >80% at most
 * one), which becomes RLR's hit priority.
 */

#include "bench/common.hh"
#include "ml/analysis.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    auto parser = bench::makeParser(
        "Figure 6: victim hit-count distribution (agent sim)");
    if (!parser.parse(argc, argv))
        return 0;
    auto opt = bench::makeOptions(parser);

    auto workloads = opt.workloads;
    if (workloads.empty())
        workloads = bench::trainingNames();

    util::Table table(
        {"Benchmark", "0 hits (%)", "1 hit (%)", ">1 hit (%)"});
    std::vector<std::vector<std::string>> rows(workloads.size());

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
            cfg.seed = opt.seed + 37 * i;
            ml::trainAgent(osim, cfg, 1); // victim stats need no convergence
            const auto &fs = osim.featureStats();
            const double total = static_cast<double>(
                fs.victims_zero_hits + fs.victims_one_hit +
                fs.victims_multi_hits);
            auto pct = [&](uint64_t v) {
                return util::Table::fmt(
                    total > 0 ? 100.0 * static_cast<double>(v) /
                                    total
                              : 0.0,
                    1);
            };
            rows[i] = {workloads[i], pct(fs.victims_zero_hits),
                       pct(fs.victims_one_hit),
                       pct(fs.victims_multi_hits)};
        });

    for (auto &row : rows)
        if (!row.empty())
            table.addRow(row);

    std::puts("=== Figure 6: hits at eviction (agent simulation) "
              "===");
    bench::emit(opt, table);
    std::puts("\nPaper's shape: >50% of victims have zero hits and "
              ">80% at most one hit in every benchmark.");
    return 0;
}
