/**
 * @file
 * The paper's ML-aided design flow, end to end on one benchmark:
 *   1. capture an LLC access trace under LRU,
 *   2. train the RL agent (DQN over Table II features) against
 *      Belady-based rewards,
 *   3. read the learned model: per-feature saliency and the
 *      victim statistics that motivate RLR's priorities,
 *   4. compare the derived RLR policy on the same trace.
 */

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "core/rlr.hh"
#include "ml/analysis.hh"
#include "policies/lru.hh"
#include "sim/experiment.hh"
#include "util/args.hh"

using namespace rlr;

int
main(int argc, char **argv)
{
    util::ArgParser parser("ML-aided replacement design flow");
    parser.addOption("workload", "471.omnetpp", "Benchmark");
    parser.addOption("instructions", "250000",
                     "Instructions for trace capture");
    parser.addOption("epochs", "2", "RL training epochs");
    if (!parser.parse(argc, argv))
        return 0;

    const std::string workload = parser.get("workload");

    // 1. Capture the LLC stream under LRU (unbiased, as in the
    //    paper's trace-generation step).
    sim::SimParams params;
    params.warmup_instructions = 100'000;
    params.sim_instructions = parser.getUint("instructions");
    std::printf("[1/4] capturing LLC trace of %s...\n",
                workload.c_str());
    const auto trace = sim::captureLlcTrace(workload, params);
    std::unordered_set<uint64_t> lines;
    for (const auto &a : trace)
        lines.insert(a.address >> 6);
    std::printf("      %zu accesses, %zu distinct lines\n",
                trace.size(), lines.size());

    ml::OfflineSimulator sim(ml::OfflineConfig{}, &trace);

    policies::LruPolicy lru;
    const double lru_rate = sim.runPolicy(lru).demandHitRate();
    policies::BeladyPolicy belady(sim.oracle());
    const double opt_rate =
        sim.runPolicy(belady).demandHitRate();

    // 2. Train the agent.
    std::printf("[2/4] training the RL agent (334-175-16 MLP, "
                "eps=0.1, experience replay)...\n");
    ml::AgentConfig cfg;
    const auto tr = ml::trainAgent(
        sim, cfg,
        static_cast<unsigned>(parser.getUint("epochs")));
    std::printf("      LRU %.1f%%  <  RL %.1f%%  <  Belady "
                "%.1f%% (demand hit rate)\n",
                100.0 * lru_rate,
                100.0 * tr.eval.demandHitRate(),
                100.0 * opt_rate);

    // 3. Interpret the model.
    std::printf("[3/4] reading the learned model:\n");
    const auto saliency =
        ml::groupSaliency(tr.agent->network(), sim.extractor());
    std::vector<size_t> order(saliency.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return saliency[a] > saliency[b];
    });
    for (size_t k = 0; k < 5; ++k) {
        std::printf("      #%zu %-28s (saliency %.3f)\n", k + 1,
                    std::string(ml::featureGroupName(
                        static_cast<ml::FeatureGroup>(order[k])))
                        .c_str(),
                    saliency[order[k]]);
    }
    const auto &fs = sim.featureStats();
    const double victims = static_cast<double>(
        fs.victims_zero_hits + fs.victims_one_hit +
        fs.victims_multi_hits);
    if (victims > 0) {
        std::printf("      agent victims: %.0f%% zero hits; avg "
                    "age LD %.0f vs PF %.0f\n",
                    100.0 * static_cast<double>(
                                fs.victims_zero_hits) /
                        victims,
                    fs.avgVictimAge(trace::AccessType::Load),
                    fs.avgVictimAge(trace::AccessType::Prefetch));
    }

    // 4. The derived policy on the same trace.
    core::RlrPolicy rlr_policy;
    const double rlr_rate =
        sim.runPolicy(rlr_policy).demandHitRate();
    std::printf("[4/4] derived RLR policy on the same trace: "
                "%.1f%% demand hit rate (LRU %.1f%%)\n",
                100.0 * rlr_rate, 100.0 * lru_rate);
    return 0;
}
