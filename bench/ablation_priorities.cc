/**
 * @file
 * Regenerates the Section V-B priority ablation: RLR with the hit
 * register disabled and with the type register disabled, versus
 * full RLR. The paper reports the speedup over LRU shrinking by
 * 12% (no hit priority) and 30% (no type priority) on SPEC2006.
 */

#include "bench/common.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    auto parser = bench::makeParser(
        "Ablation: RLR hit/type priority contribution");
    if (!parser.parse(argc, argv))
        return 0;
    auto opt = bench::makeOptions(parser);

    auto workloads = opt.workloads;
    if (workloads.empty())
        workloads = bench::specNames();
    const std::vector<std::string> policies = {
        "RLR", "RLR-nohit", "RLR-notype"};

    const auto cells = bench::runSweep(
        opt, workloads, bench::withLruBaseline(policies));

    std::vector<double> overall(policies.size(), 0.0);
    for (size_t p = 0; p < policies.size(); ++p) {
        std::vector<double> ratios;
        for (const auto &w : workloads) {
            const auto &base = sim::findCell(cells, w, "LRU");
            const auto &cell =
                sim::findCell(cells, w, policies[p]);
            ratios.push_back(stats::speedup(
                cell.result.ipc(), base.result.ipc()));
        }
        overall[p] = stats::geomean(ratios);
    }

    util::Table table({"Variant", "Speedup over LRU (%)",
                       "Share of full RLR gain (%)"});
    const double full_gain = overall[0] - 1.0;
    for (size_t p = 0; p < policies.size(); ++p) {
        const double gain = overall[p] - 1.0;
        table.addRow(
            {policies[p], util::Table::fmt(100.0 * gain, 2),
             util::Table::fmt(full_gain > 0
                                  ? 100.0 * gain / full_gain
                                  : 0.0,
                              1)});
    }

    std::puts("=== Ablation: RLR priority components (SPEC2006) "
              "===");
    bench::emit(opt, table);
    std::puts("\nPaper: disabling the hit register cuts the gain "
              "by 12%; disabling the type register cuts it by "
              "30%.");
    return bench::finish(opt);
}
