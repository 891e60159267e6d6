/**
 * @file
 * Regenerates Figure 13: 4-core workload-mix performance (geomean
 * IPC speedup over LRU per mix, 8MB shared LLC). RLR uses the
 * multicore extension (core priority, Section IV-D).
 */

#include "bench/common.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    auto parser = bench::makeParser(
        "Figure 13: 4-core workload-mix speedup over LRU");
    parser.addOption("mixes", "10",
                     "Number of random 4-benchmark mixes");
    if (!parser.parse(argc, argv))
        return 0;
    auto opt = bench::makeOptions(parser);
    const size_t n_mixes = parser.getUint("mixes");

    auto policies = opt.policies;
    if (policies.empty())
        policies = {"DRRIP", "KPC-R",  "SHiP",    "RLR",
                    "RLR-mc", "Hawkeye", "SHiP++"};

    const auto mixes =
        bench::makeMixes(bench::specNames(), n_mixes, opt.seed);

    const auto cells = bench::multicoreSweep(
        opt, mixes, bench::withLruBaseline(policies));

    std::vector<std::string> header = {"Mix"};
    for (const auto &p : policies)
        header.push_back(p);
    util::Table table(header);

    std::vector<std::vector<double>> ratios(policies.size());
    for (size_t m = 0; m < mixes.size(); ++m) {
        const auto &base = bench::findMixCell(cells, m, "LRU");
        std::string mix_name;
        for (const auto &w : mixes[m]) {
            if (!mix_name.empty())
                mix_name += '+';
            mix_name += w.substr(0, w.find('.'));
        }
        std::vector<std::string> row = {mix_name};
        for (size_t p = 0; p < policies.size(); ++p) {
            const auto &cell =
                bench::findMixCell(cells, m, policies[p]);
            const double ratio =
                cell.result.speedupOver(base.result);
            ratios[p].push_back(ratio);
            row.push_back(
                util::Table::fmt(100.0 * (ratio - 1.0), 2));
        }
        table.addRow(row);
    }
    std::vector<std::string> overall = {"Overall (geomean)"};
    for (size_t p = 0; p < policies.size(); ++p)
        overall.push_back(util::Table::fmt(
            100.0 * (stats::geomean(ratios[p]) - 1.0), 2));
    table.addRow(overall);

    std::puts("=== Figure 13: 4-core mix speedup over LRU (%) ===");
    bench::emit(opt, table);
    std::puts("\nPaper's shape (4-core SPEC2006): RLR > DRRIP by "
              "~2.3pp; PC-based SHiP/SHiP++/Hawkeye lead; KPC-R "
              "slightly ahead of RLR in multicore.");
    return bench::finish(opt);
}
