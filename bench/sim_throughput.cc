/**
 * @file
 * Simulated-accesses-per-second benchmark for the LLC hot path.
 *
 * For every policy it replays one deterministic synthetic trace
 * through the production cache::Cache (best of --reps timed
 * replays) and prints/exports the throughput and counters. The
 * whole-System benchmark of record is bench/e2e; this one isolates
 * the LLC so per-policy costs can be compared directly
 * (docs/PERFORMANCE.md).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/policy_factory.hh"
#include "stats/stats.hh"
#include "trace/record.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace rlr;

namespace
{

/** Zero-state backing memory with a fixed miss latency. */
class FlatMemory : public cache::MemoryLevel
{
  public:
    uint64_t
    access(const cache::MemRequest &req, uint64_t now) override
    {
        if (req.type == trace::AccessType::Writeback)
            return now;
        return now + 100;
    }
    const std::string &name() const override { return name_; }

  private:
    std::string name_ = "flat";
};

/** One pre-generated trace record (kept minimal for replay). */
struct Access
{
    uint64_t address;
    uint64_t pc;
    trace::AccessType type;
};

/** Deterministic hot/streaming/uniform mix over a line pool. */
std::vector<Access>
makeTrace(uint64_t accesses, uint32_t pool_lines, uint64_t seed)
{
    util::Rng rng(seed ^ 0x51417ULL);
    const uint32_t hot = std::max<uint32_t>(1, pool_lines / 64);
    std::vector<Access> trace;
    trace.reserve(accesses);
    for (uint64_t i = 0; i < accesses; ++i) {
        uint64_t idx;
        const double pick = rng.nextDouble();
        if (pick < 0.35)
            idx = rng.nextBounded(hot);
        else if (pick < 0.50)
            idx = i % pool_lines;
        else
            idx = rng.nextBounded(pool_lines);
        Access a;
        a.address = idx * 64;
        const double t = rng.nextDouble();
        if (t < 0.10)
            a.type = trace::AccessType::Rfo;
        else if (t < 0.20)
            a.type = trace::AccessType::Prefetch;
        else if (t < 0.30)
            a.type = trace::AccessType::Writeback;
        else
            a.type = trace::AccessType::Load;
        a.pc = a.type == trace::AccessType::Writeback
                   ? 0
                   : 0x400000 + 4 * rng.nextBounded(256);
        trace.push_back(a);
    }
    return trace;
}

cache::CacheGeometry
benchGeometry()
{
    cache::CacheGeometry geom;
    geom.name = "llc";
    geom.size_bytes = 1 * 1024 * 1024; // 1024 sets x 16 ways
    geom.ways = 16;
    geom.latency = 20;
    geom.mshrs = 16;
    return geom;
}

/** Feed the whole trace through @p c, one access per 4 cycles. */
void
replay(cache::Cache &c, const std::vector<Access> &trace)
{
    uint64_t now = 0;
    for (const Access &a : trace) {
        cache::MemRequest req;
        req.address = a.address;
        req.pc = a.pc;
        req.type = a.type;
        c.access(req, now);
        now += 4;
    }
}

/** A fresh benchmark LLC running @p policy. */
std::unique_ptr<cache::Cache>
makeCache(const std::string &policy, uint64_t seed,
          cache::MemoryLevel *mem)
{
    return std::make_unique<cache::Cache>(
        benchGeometry(), core::makePolicy(policy, seed), mem);
}

/** JSON string escaping (policy names reach the export). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** One policy's benchmark row. */
struct PolicyResult
{
    std::string policy;
    /** Best observed throughput, simulated accesses/second. */
    double mps = 0.0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t bypasses = 0;
};

/**
 * Benchmark one policy: @p reps timed replays on fresh caches
 * (the fastest is kept; counters are rep-invariant).
 */
PolicyResult
runPolicy(const std::string &policy, uint64_t seed,
          const std::vector<Access> &trace, unsigned reps)
{
    PolicyResult row;
    row.policy = policy;
    FlatMemory mem;
    for (unsigned r = 0; r < reps; ++r) {
        auto c = makeCache(policy, seed, &mem);
        const auto t0 = std::chrono::steady_clock::now();
        replay(*c, trace);
        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        if (secs > 0.0) {
            row.mps = std::max(
                row.mps, static_cast<double>(trace.size()) / secs);
        }
        if (r + 1 < reps)
            continue;
        const stats::StatSet &st = c->statSet();
        for (const auto &[key, val] : st.items()) {
            if (key.ends_with("_hit"))
                row.hits += val;
            else if (key.ends_with("_miss"))
                row.misses += val;
        }
        row.evictions = st.value("evictions");
        row.bypasses = st.value("bypasses");
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser parser(
        "LLC hot-path throughput benchmark: simulated accesses/sec "
        "per policy through the production cache");
    parser.addOption("policies", "",
                     "Comma-separated policies (default: "
                     "LRU,SRRIP,BRRIP,DRRIP,SHiP,SHiP++,RLR)");
    parser.addOption("accesses", "300000",
                     "Trace length replayed per measurement");
    parser.addOption("reps", "3",
                     "Timed repetitions per policy (best is kept)");
    parser.addOption("seed", "42", "Trace random seed");
    parser.addOption("pool", "24576",
                     "Distinct lines in the trace's address pool "
                     "(default: 1.5x the benchmark LLC's 16384 "
                     "lines, a mixed hit/miss replay)");
    parser.addOption("json", "",
                     "Write the per-policy results as JSON "
                     "(BENCH_sim_throughput.json schema, "
                     "docs/PERFORMANCE.md)");
    parser.addFlag("stable-json",
                   "Zero wall-clock throughput fields in the JSON "
                   "export so same-seed runs are byte-identical");
    parser.addFlag("csv", "Emit CSV instead of an aligned table");
    if (!parser.parse(argc, argv))
        return 0;

    std::vector<std::string> policies = parser.getList("policies");
    if (policies.empty()) {
        policies = {"LRU",  "SRRIP",  "BRRIP", "DRRIP",
                    "SHiP", "SHiP++", "RLR"};
    }
    const uint64_t accesses = parser.getUint("accesses");
    const unsigned reps =
        static_cast<unsigned>(std::max<uint64_t>(
            1, parser.getUint("reps")));
    const uint64_t seed = parser.getUint("seed");
    const uint32_t pool =
        static_cast<uint32_t>(std::max<uint64_t>(
            1, parser.getUint("pool")));
    const std::string json = parser.get("json");
    const bool stable = parser.getFlag("stable-json");
    const bool csv = parser.getFlag("csv");

    const auto trace = makeTrace(accesses, pool, seed);
    std::vector<PolicyResult> results;
    for (const auto &name : policies)
        results.push_back(runPolicy(name, seed, trace, reps));

    util::Table table({"Policy", "Macc/s", "Hits", "Misses",
                       "Evictions", "Bypasses"});
    for (const auto &r : results) {
        table.addRow({r.policy, util::Table::fmt(r.mps / 1e6, 2),
                      std::to_string(r.hits),
                      std::to_string(r.misses),
                      std::to_string(r.evictions),
                      std::to_string(r.bypasses)});
    }
    std::puts("=== LLC hot-path throughput ===");
    std::fputs((csv ? table.csv() : table.render()).c_str(), stdout);

    if (!json.empty()) {
        FILE *f = std::fopen(json.c_str(), "w");
        if (!f)
            util::fatal("cannot write '{}'", json);
        std::fprintf(f,
                     "{\n  \"benchmark\": \"sim_throughput\",\n"
                     "  \"accesses\": %llu,\n  \"reps\": %u,\n"
                     "  \"seed\": %llu,\n  \"pool\": %u,\n"
                     "  \"stable\": %s,\n  \"policies\": [\n",
                     static_cast<unsigned long long>(accesses),
                     reps,
                     static_cast<unsigned long long>(seed), pool,
                     stable ? "true" : "false");
        for (size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            std::fprintf(
                f,
                "    {\"policy\": \"%s\", \"mps\": %.0f, "
                "\"hits\": %llu, \"misses\": %llu, "
                "\"evictions\": %llu, \"bypasses\": %llu}%s\n",
                jsonEscape(r.policy).c_str(), stable ? 0.0 : r.mps,
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.misses),
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.bypasses),
                i + 1 < results.size() ? "," : "");
        }
        std::fputs("  ]\n}\n", f);
        std::fclose(f);
        std::printf("wrote %s\n", json.c_str());
    }
    return 0;
}
