/**
 * @file
 * Regenerates Figure 4: distribution of |preuse - reuse| distance
 * over reused LLC lines, per benchmark, in the buckets <10,
 * 10-50, >50 set accesses. The paper's takeaway: for most reused
 * lines preuse approximates reuse distance well, justifying RLR's
 * RD predictor.
 */

#include "bench/common.hh"
#include "ml/offline.hh"
#include "policies/lru.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    auto parser = bench::makeParser(
        "Figure 4: |preuse - reuse| distribution over reused lines");
    if (!parser.parse(argc, argv))
        return 0;
    auto opt = bench::makeOptions(parser);

    auto workloads = opt.workloads;
    if (workloads.empty())
        workloads = bench::trainingNames();

    util::Table table({"Benchmark", "<10 (%)", "10-50 (%)",
                       ">50 (%)", "reused lines"});
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
            policies::LruPolicy lru;
            osim.runPolicy(lru);
            const auto &fs = osim.featureStats();
            const double total = static_cast<double>(
                fs.preuse_reuse_lt10 + fs.preuse_reuse_10to50 +
                fs.preuse_reuse_gt50);
            auto pct = [&](uint64_t v) {
                return util::Table::fmt(
                    total > 0 ? 100.0 * static_cast<double>(v) /
                                    total
                              : 0.0,
                    1);
            };
            rows[i] = {workloads[i], pct(fs.preuse_reuse_lt10),
                       pct(fs.preuse_reuse_10to50),
                       pct(fs.preuse_reuse_gt50),
                       std::to_string(static_cast<uint64_t>(
                           total))};
        });

    for (auto &row : rows)
        if (!row.empty())
            table.addRow(row);

    std::puts("=== Figure 4: |preuse - reuse| buckets over reused "
              "LLC lines ===");
    bench::emit(opt, table);
    std::puts("\nPaper's shape: a large fraction of reused lines "
              "fall in the <10 bucket, and >50% within <=50.");
    return 0;
}
