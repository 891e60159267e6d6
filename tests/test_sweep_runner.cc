/** @file Tests for the fault-isolated SweepRunner engine. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/sweep_runner.hh"

using namespace rlr;
using sim::SweepCell;
using sim::SweepOptions;
using sim::SweepRunner;

namespace
{

/** Synthetic cell body: cheap, deterministic, seed-sensitive. */
sim::RunResult
fakeRun(const SweepRunner::CellSpec &spec, const sim::SimParams &p)
{
    sim::RunResult r;
    sim::CoreResult core;
    core.workload = spec.cores.empty() ? "" : spec.cores[0];
    core.instructions = 1000;
    core.cycles = 500 + p.seed % 97;
    core.ipc = static_cast<double>(core.instructions) /
               static_cast<double>(core.cycles);
    r.cores.push_back(core);
    r.total_instructions = core.instructions;
    r.llc_demand_accesses = 100;
    r.llc_demand_hits = 60 + p.seed % 7;
    r.llc_demand_misses =
        r.llc_demand_accesses - r.llc_demand_hits;
    return r;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempJsonPath(const char *name)
{
    return ::testing::TempDir() + name;
}

} // namespace

TEST(SweepRunner, FailingCellIsIsolated)
{
    sim::SimParams params;
    SweepOptions opts;
    opts.threads = 4;
    SweepRunner runner(params, opts);
    runner.setCellFn([](const SweepRunner::CellSpec &spec,
                        const sim::SimParams &p) {
        if (spec.workload == "bad" && spec.policy == "RLR")
            throw std::runtime_error("injected cell failure");
        return fakeRun(spec, p);
    });

    const auto cells = runner.run({"good1", "bad", "good2"},
                                  {"LRU", "RLR"});
    ASSERT_EQ(cells.size(), 6u);

    size_t failed = 0;
    for (const auto &c : cells) {
        if (c.workload == "bad" && c.policy == "RLR") {
            ++failed;
            EXPECT_FALSE(c.ok());
            EXPECT_EQ(c.error, "injected cell failure");
            EXPECT_TRUE(c.result.cores.empty());
        } else {
            // Every other cell completed despite the failure.
            EXPECT_TRUE(c.ok()) << c.workload << "/" << c.policy;
            EXPECT_EQ(c.result.total_instructions, 1000u);
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_TRUE(SweepRunner::anyFailed(cells));

    const auto table = SweepRunner::errorTable(cells);
    EXPECT_EQ(table.numRows(), 1u);
    EXPECT_NE(table.render().find("injected cell failure"),
              std::string::npos);
}

TEST(SweepRunner, NonStdExceptionIsCaptured)
{
    SweepRunner runner(sim::SimParams{}, SweepOptions{});
    runner.setCellFn([](const SweepRunner::CellSpec &,
                        const sim::SimParams &) -> sim::RunResult {
        throw 7; // not derived from std::exception
    });
    const auto cells = runner.run({"w"}, {"p"});
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].error, "unknown exception");
}

TEST(SweepRunner, SeedsDependOnWorkloadOnly)
{
    // Same workload under different policies must see the same
    // seed (comparable access streams); different workloads and
    // different master seeds must decorrelate.
    EXPECT_EQ(SweepRunner::cellSeed(42, "a"),
              SweepRunner::cellSeed(42, "a"));
    EXPECT_NE(SweepRunner::cellSeed(42, "a"),
              SweepRunner::cellSeed(42, "b"));
    EXPECT_NE(SweepRunner::cellSeed(42, "a"),
              SweepRunner::cellSeed(43, "a"));

    SweepRunner runner(sim::SimParams{}, SweepOptions{});
    runner.setCellFn(fakeRun);
    const auto cells = runner.run({"a", "b"}, {"LRU", "RLR"});
    for (const auto &c : cells) {
        EXPECT_EQ(c.seed, SweepRunner::cellSeed(42, c.workload));
    }
    EXPECT_EQ(cells[0].seed, cells[1].seed);   // a/LRU == a/RLR
    EXPECT_NE(cells[0].seed, cells[2].seed);   // a != b
}

TEST(SweepRunner, ResultsInvariantToThreadCount)
{
    sim::SimParams params;
    params.seed = 7;
    auto run_with = [&](size_t threads, bool journaled) {
        SweepOptions opts;
        opts.threads = threads;
        opts.stable_telemetry = true;
        if (journaled) {
            // Claims and commits through a fresh journal.
            opts.journal_dir = tempJsonPath("invariant_journal");
            std::filesystem::remove_all(opts.journal_dir);
        }
        SweepRunner runner(params, opts);
        runner.setCellFn(fakeRun);
        const auto cells =
            runner.run({"w1", "w2", "w3"}, {"LRU", "RLR"});
        if (journaled)
            std::filesystem::remove_all(opts.journal_dir);
        return cells;
    };
    const auto serial = run_with(1, false);
    const auto parallel = run_with(8, false);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].seed, parallel[i].seed);
        EXPECT_EQ(serial[i].result.llc_demand_hits,
                  parallel[i].result.llc_demand_hits);
    }
    // The journaled path exports the same bytes at any thread
    // count.
    const std::string reference = SweepRunner::toJson(serial);
    for (const size_t threads : {1, 4}) {
        EXPECT_EQ(SweepRunner::toJson(run_with(threads, true)),
                  reference)
            << threads << " threads";
    }
}

TEST(SweepRunner, RecordsTelemetry)
{
    SweepRunner runner(sim::SimParams{}, SweepOptions{});
    runner.setCellFn([](const SweepRunner::CellSpec &spec,
                        const sim::SimParams &p) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2));
        return fakeRun(spec, p);
    });
    const auto cells = runner.run({"w"}, {"LRU"});
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_GT(cells[0].wall_seconds, 0.0);
    EXPECT_GT(cells[0].mips, 0.0);
}

TEST(SweepRunner, JsonExportReportsResultsAndErrors)
{
    const std::string path = tempJsonPath("sweep_runner_test.json");
    sim::SimParams params;
    SweepOptions opts;
    opts.threads = 2;
    opts.json_path = path;
    SweepRunner runner(params, opts);
    runner.setCellFn([](const SweepRunner::CellSpec &spec,
                        const sim::SimParams &p) {
        if (spec.policy == "RLR")
            throw std::runtime_error("quoted \"boom\"\n");
        return fakeRun(spec, p);
    });
    const auto cells = runner.run({"wl"}, {"LRU", "RLR"});
    const std::string json = slurp(path);
    std::remove(path.c_str());

    // Healthy cell: metrics present, error null.
    EXPECT_NE(json.find("\"workload\": \"wl\""),
              std::string::npos);
    EXPECT_NE(json.find("\"policy\": \"LRU\""), std::string::npos);
    EXPECT_NE(json.find("\"error\": null"), std::string::npos);
    EXPECT_NE(json.find("\"instructions\": 1000"),
              std::string::npos);

    // Failed cell: metrics null, error escaped into valid JSON.
    EXPECT_NE(json.find("\"hit_rate\": null"), std::string::npos);
    EXPECT_NE(json.find("\"error\": \"quoted \\\"boom\\\"\\n\""),
              std::string::npos);

    // Export and in-memory serialization agree.
    EXPECT_EQ(json, SweepRunner::toJson(cells));
}
