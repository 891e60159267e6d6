/**
 * @file
 * Regenerates Figure 1: LLC hit rate of LRU, DRRIP, SHiP, SHiP++,
 * Hawkeye, RLR (full-hierarchy simulation) plus the RL agent and
 * Belady (offline LLC-only simulation over a trace captured under
 * LRU, exactly as in the paper's footnote 1).
 */

#include "bench/common.hh"
#include "ml/analysis.hh"
#include "policies/lru.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    auto parser = bench::makeParser(
        "Figure 1: LLC hit rate comparison incl. RL and Belady");
    if (!parser.parse(argc, argv))
        return 0;
    auto opt = bench::makeOptions(parser);

    auto workloads = opt.workloads;
    if (workloads.empty())
        workloads = bench::trainingNames();
    auto policies = opt.policies;
    if (policies.empty())
        policies = {"LRU",    "DRRIP",   "SHiP",
                    "SHiP++", "Hawkeye", "RLR"};

    // Full-hierarchy hit rates.
    const auto cells = bench::runSweep(opt, workloads, policies);

    // Offline RL + Belady per workload, from LRU-captured traces.
    struct OfflineRates
    {
        double lru = 0.0;
        double rl = 0.0;
        double belady = 0.0;
    };
    std::vector<OfflineRates> offline(workloads.size());
    util::parallelFor(
        workloads.size(), opt.threads, [&](size_t i) {
            sim::SimParams capture_params = opt.params;
            capture_params.sim_instructions = opt.rl_instructions;
            const auto trace = sim::captureLlcTrace(
                workloads[i], capture_params);
            if (trace.empty())
                return;
            ml::OfflineSimulator osim(ml::OfflineConfig{}, &trace);
            policies::LruPolicy off_lru;
            offline[i].lru =
                osim.runPolicy(off_lru).demandHitRate();
            policies::BeladyPolicy belady(osim.oracle());
            offline[i].belady =
                osim.runPolicy(belady).demandHitRate();
            ml::AgentConfig cfg;
            cfg.seed = opt.seed + i;
            const auto tr =
                ml::trainAgent(osim, cfg, opt.rl_epochs);
            offline[i].rl = tr.eval.demandHitRate();
        });

    std::vector<std::string> header = {"Benchmark"};
    for (const auto &p : policies)
        header.push_back(p);
    header.push_back("LRU(off)");
    header.push_back("RL");
    header.push_back("BELADY");
    util::Table table(header);

    for (size_t i = 0; i < workloads.size(); ++i) {
        std::vector<std::string> row = {workloads[i]};
        for (const auto &p : policies) {
            const auto &cell =
                sim::findCell(cells, workloads[i], p);
            row.push_back(util::Table::fmt(
                100.0 * cell.result.llcDemandHitRate(), 1));
        }
        row.push_back(
            util::Table::fmt(100.0 * offline[i].lru, 1));
        row.push_back(
            util::Table::fmt(100.0 * offline[i].rl, 1));
        row.push_back(
            util::Table::fmt(100.0 * offline[i].belady, 1));
        table.addRow(row);
    }

    std::puts("=== Figure 1: LLC demand hit rate (%) ===");
    std::puts("(RL and BELADY run in the offline LLC-only "
              "simulator over an LRU-captured trace)");
    bench::emit(opt, table);
    std::puts("\nThe offline columns start from a cold cache over "
              "a finite captured trace, so compare RL/BELADY "
              "against LRU(off), not the full-system columns.");
    std::puts("Expected shape: BELADY >= RL >= LRU(off); "
              "PC-based policies >= non-PC policies on most "
              "benchmarks.");
    return bench::finish(opt);
}
