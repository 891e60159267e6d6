/**
 * @file
 * Regenerates Figure 3: heat map of first-layer neural-network
 * weight magnitudes per feature group, one column per training
 * benchmark. The paper reads the high-weight rows (access preuse,
 * line preuse, line last access type, line hits since insertion,
 * line recency) as the features worth building a policy from.
 */

#include "bench/common.hh"
#include "ml/analysis.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    auto parser = bench::makeParser(
        "Figure 3: NN weight heat map per feature and benchmark");
    if (!parser.parse(argc, argv))
        return 0;
    auto opt = bench::makeOptions(parser);

    auto workloads = opt.workloads;
    if (workloads.empty())
        workloads = bench::trainingNames();

    std::vector<std::vector<double>> columns(workloads.size());
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
            cfg.seed = opt.seed + 17 * i;
            const auto tr =
                ml::trainAgent(osim, cfg, opt.rl_epochs);
            columns[i] = ml::groupSaliency(tr.agent->network(),
                                           osim.extractor());
        });

    std::puts("=== Figure 3: neural network weight heat map ===");
    std::fputs(ml::renderHeatMap(workloads, columns).c_str(),
               stdout);

    // Aggregate importance ranking across benchmarks.
    std::vector<double> avg(ml::kNumFeatureGroups, 0.0);
    size_t cols = 0;
    for (const auto &col : columns) {
        if (col.empty())
            continue;
        double peak = 0.0;
        for (const auto v : col)
            peak = std::max(peak, v);
        if (peak <= 0.0)
            continue;
        for (size_t g = 0; g < col.size(); ++g)
            avg[g] += col[g] / peak;
        ++cols;
    }
    std::vector<size_t> order(ml::kNumFeatureGroups);
    for (size_t g = 0; g < order.size(); ++g)
        order[g] = g;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return avg[a] > avg[b];
    });

    std::puts("\nTop feature groups by mean normalized saliency:");
    for (size_t k = 0; k < 6 && k < order.size(); ++k) {
        std::printf("  %zu. %s (%.2f)\n", k + 1,
                    std::string(ml::featureGroupName(
                        static_cast<ml::FeatureGroup>(order[k])))
                        .c_str(),
                    cols ? avg[order[k]] / static_cast<double>(cols)
                         : 0.0);
    }
    std::puts("\nPaper's high-weight features: access preuse, line "
              "preuse, line last access type, line hits since "
              "insertion, line recency.");
    return 0;
}
