/**
 * @file
 * Regenerates Figure 5: average age (set accesses since last
 * access) of the RL agent's victims, split by the victim's last
 * access type. The paper's takeaway: prefetch-typed victims have
 * the lowest average age — the agent evicts non-reused prefetched
 * lines sooner, which becomes RLR's type priority.
 */

#include "bench/common.hh"
#include "ml/analysis.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    auto parser = bench::makeParser(
        "Figure 5: average agent-victim age per access type");
    if (!parser.parse(argc, argv))
        return 0;
    auto opt = bench::makeOptions(parser);

    auto workloads = opt.workloads;
    if (workloads.empty())
        workloads = bench::trainingNames();

    util::Table table({"Benchmark", "LOAD", "RFO", "PREFETCH",
                       "WRITEBACK"});
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
            cfg.seed = opt.seed + 31 * i;
            ml::trainAgent(osim, cfg, 1); // victim stats need no convergence
            const auto &fs = osim.featureStats();
            rows[i] = {
                workloads[i],
                util::Table::fmt(
                    fs.avgVictimAge(trace::AccessType::Load), 1),
                util::Table::fmt(
                    fs.avgVictimAge(trace::AccessType::Rfo), 1),
                util::Table::fmt(
                    fs.avgVictimAge(trace::AccessType::Prefetch),
                    1),
                util::Table::fmt(
                    fs.avgVictimAge(trace::AccessType::Writeback),
                    1)};
        });

    for (auto &row : rows)
        if (!row.empty())
            table.addRow(row);

    std::puts("=== Figure 5: average victim age by last access "
              "type (agent simulation) ===");
    bench::emit(opt, table);
    std::puts("\nPaper's shape: PREFETCH victims have the lowest "
              "average age in almost all benchmarks.");
    return 0;
}
