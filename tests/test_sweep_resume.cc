/**
 * @file
 * Crash-safe sweep robustness: journal-backed resume (full and
 * partial, byte-identical exports), retry-with-backoff on
 * transient faults, the --cell-timeout watchdog reaping a hung
 * cell while the rest of the sweep completes, and the FaultPlan
 * grammar driving all of it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/fault_plan.hh"
#include "sim/journal.hh"
#include "sim/sweep_runner.hh"
#include "util/cancel_token.hh"

using namespace rlr;
using sim::FaultKind;
using sim::FaultPlan;
using sim::SweepCell;
using sim::SweepOptions;
using sim::SweepRunner;

namespace fs = std::filesystem;

namespace
{

/** Synthetic cell body (same shape as test_sweep_runner). */
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
    r.stats.counters = {{"llc.LD_hit", r.llc_demand_hits}};
    return r;
}

std::string
tempDir(const char *name)
{
    const std::string dir = ::testing::TempDir() + name;
    fs::remove_all(dir);
    return dir;
}

std::string
recordPath(const std::string &dir, const SweepCell &cell)
{
    const uint64_t hash = sim::SweepJournal::specHash(
        SweepRunner::CellSpec{cell.workload, cell.policy,
                              {cell.workload}},
        cell.seed);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return dir + "/cell-" + buf + ".json";
}

} // namespace

TEST(SweepResume, FullResumeSkipsEveryCellByteIdentically)
{
    const std::string dir = tempDir("resume_full");
    sim::SimParams params;
    SweepOptions opts;
    opts.threads = 2;
    opts.journal_dir = dir;
    opts.stable_telemetry = true;

    std::atomic<int> runs{0};
    auto counting = [&](const SweepRunner::CellSpec &spec,
                        const sim::SimParams &p) {
        ++runs;
        return fakeRun(spec, p);
    };

    SweepRunner first(params, opts);
    first.setCellFn(counting);
    const auto cells1 =
        first.run({"w1", "w2"}, {"LRU", "RLR"});
    EXPECT_EQ(runs.load(), 4);
    EXPECT_EQ(first.stats().completed_cells, 4u);
    EXPECT_EQ(first.stats().resumed_cells, 0u);

    SweepRunner second(params, opts);
    second.setCellFn(counting);
    const auto cells2 =
        second.run({"w1", "w2"}, {"LRU", "RLR"});
    // Every cell served from the journal: zero re-execution.
    EXPECT_EQ(runs.load(), 4);
    EXPECT_EQ(second.stats().resumed_cells, 4u);
    for (const auto &c : cells2)
        EXPECT_TRUE(c.resumed) << c.workload << "/" << c.policy;

    // The resumed export is byte-identical to the original run's
    // — the property the crash/resume harness asserts end to end.
    EXPECT_EQ(SweepRunner::toJson(cells1),
              SweepRunner::toJson(cells2));
    fs::remove_all(dir);
}

TEST(SweepResume, PartialResumeRerunsOnlyTheMissingCell)
{
    const std::string dir = tempDir("resume_partial");
    sim::SimParams params;
    SweepOptions opts;
    opts.journal_dir = dir;
    opts.stable_telemetry = true;

    std::atomic<int> runs{0};
    auto counting = [&](const SweepRunner::CellSpec &spec,
                        const sim::SimParams &p) {
        ++runs;
        return fakeRun(spec, p);
    };

    SweepRunner first(params, opts);
    first.setCellFn(counting);
    const auto cells1 = first.run({"w1", "w2", "w3"}, {"LRU"});
    ASSERT_EQ(runs.load(), 3);

    // Simulate a crash that lost one record: delete it.
    const std::string victim = recordPath(dir, cells1[1]);
    ASSERT_TRUE(fs::remove(victim)) << victim;

    SweepRunner second(params, opts);
    second.setCellFn(counting);
    const auto cells2 = second.run({"w1", "w2", "w3"}, {"LRU"});
    EXPECT_EQ(runs.load(), 4); // exactly one cell re-ran
    EXPECT_EQ(second.stats().resumed_cells, 2u);
    EXPECT_TRUE(cells2[0].resumed);
    EXPECT_FALSE(cells2[1].resumed);
    EXPECT_TRUE(cells2[2].resumed);
    EXPECT_EQ(SweepRunner::toJson(cells1),
              SweepRunner::toJson(cells2));
    fs::remove_all(dir);
}

TEST(SweepResume, TransientFaultRetriesThenSucceeds)
{
    sim::SimParams params;
    SweepOptions opts;
    opts.cell_retries = 2;
    opts.retry_base_s = 0.001;
    opts.retry_cap_s = 0.002;
    opts.faults = FaultPlan::parse("transient:2@0");

    SweepRunner runner(params, opts);
    runner.setCellFn(fakeRun);
    const auto cells = runner.run({"w1", "w2"}, {"LRU"});
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_TRUE(cells[0].ok()) << cells[0].error;
    EXPECT_EQ(cells[0].attempts, 3u); // 2 failures + 1 success
    EXPECT_GT(cells[0].retry_wait_s, 0.0);
    EXPECT_EQ(cells[1].attempts, 1u);
    EXPECT_EQ(runner.stats().retries, 2u);
    EXPECT_EQ(runner.stats().failed_cells, 0u);
}

TEST(SweepResume, TransientFaultExhaustsRetriesAndFails)
{
    sim::SimParams params;
    SweepOptions opts;
    opts.cell_retries = 1;
    opts.retry_base_s = 0.001;
    opts.retry_cap_s = 0.002;
    opts.faults = FaultPlan::parse("transient:5@0");

    SweepRunner runner(params, opts);
    runner.setCellFn(fakeRun);
    const auto cells = runner.run({"w1"}, {"LRU"});
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_FALSE(cells[0].ok());
    EXPECT_NE(cells[0].error.find("transient"),
              std::string::npos);
    EXPECT_EQ(cells[0].attempts, 2u);
    EXPECT_EQ(runner.stats().retries, 1u);
    EXPECT_EQ(runner.stats().failed_cells, 1u);
}

TEST(SweepResume, NonRetryableFaultFailsWithoutRetry)
{
    sim::SimParams params;
    SweepOptions opts;
    opts.cell_retries = 3;
    opts.faults = FaultPlan::parse("throw@w1:LRU");

    SweepRunner runner(params, opts);
    runner.setCellFn(fakeRun);
    const auto cells = runner.run({"w1"}, {"LRU"});
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].error, "injected fault: throw");
    EXPECT_EQ(cells[0].attempts, 1u); // plain throws never retry
    EXPECT_EQ(runner.stats().retries, 0u);
}

TEST(SweepResume, WatchdogReapsHungCellWhileOthersComplete)
{
    // The acceptance scenario: one injected hang must be reaped
    // by --cell-timeout while every other cell still finishes.
    sim::SimParams params;
    SweepOptions opts;
    opts.threads = 2;
    opts.cell_timeout_s = 0.2;
    opts.faults = FaultPlan::parse("hang@0");

    SweepRunner runner(params, opts);
    runner.setCellFn(fakeRun);
    const auto cells = runner.run({"w1", "w2", "w3"}, {"LRU"});
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_FALSE(cells[0].ok());
    EXPECT_TRUE(cells[0].timed_out);
    // Deterministic message derived from the flag, not from
    // measured wall clock.
    EXPECT_EQ(cells[0].error,
              "timeout: attempt exceeded --cell-timeout 0.2s");
    EXPECT_TRUE(cells[1].ok()) << cells[1].error;
    EXPECT_TRUE(cells[2].ok()) << cells[2].error;
    EXPECT_EQ(runner.stats().timeouts, 1u);
    EXPECT_EQ(runner.stats().failed_cells, 1u);
}

TEST(SweepResume, TimeoutIsRetriedWhenRetriesAllowed)
{
    sim::SimParams params;
    SweepOptions opts;
    opts.cell_timeout_s = 0.1;
    opts.cell_retries = 1;
    opts.retry_base_s = 0.001;
    opts.retry_cap_s = 0.002;
    opts.faults = FaultPlan::parse("hang@0");

    SweepRunner runner(params, opts);
    runner.setCellFn(fakeRun);
    const auto cells = runner.run({"w1"}, {"LRU"});
    ASSERT_EQ(cells.size(), 1u);
    // The hang fires every attempt, so both attempts time out.
    EXPECT_TRUE(cells[0].timed_out);
    EXPECT_EQ(cells[0].attempts, 2u);
    EXPECT_EQ(runner.stats().timeouts, 2u);
    EXPECT_EQ(runner.stats().retries, 1u);
}

TEST(SweepResume, CorruptJournalFaultForcesRerunOfThatCell)
{
    const std::string dir = tempDir("resume_corrupt");
    sim::SimParams params;
    SweepOptions opts;
    opts.journal_dir = dir;
    opts.stable_telemetry = true;
    opts.faults = FaultPlan::parse("corrupt-journal@0");

    std::atomic<int> runs{0};
    auto counting = [&](const SweepRunner::CellSpec &spec,
                        const sim::SimParams &p) {
        ++runs;
        return fakeRun(spec, p);
    };

    SweepRunner first(params, opts);
    first.setCellFn(counting);
    const auto cells1 = first.run({"w1", "w2"}, {"LRU"});
    ASSERT_EQ(runs.load(), 2);
    // Both cells "completed" — but cell 0's record is torn.
    EXPECT_TRUE(cells1[0].ok());

    SweepOptions clean = opts;
    clean.faults = FaultPlan();
    SweepRunner second(params, clean);
    second.setCellFn(counting);
    const auto cells2 = second.run({"w1", "w2"}, {"LRU"});
    // The corrupt record warned and re-ran; the intact one
    // resumed.
    EXPECT_EQ(runs.load(), 3);
    EXPECT_EQ(second.stats().resumed_cells, 1u);
    EXPECT_FALSE(cells2[0].resumed);
    EXPECT_TRUE(cells2[1].resumed);
    EXPECT_EQ(SweepRunner::toJson(cells1),
              SweepRunner::toJson(cells2));
    fs::remove_all(dir);
}

TEST(SweepResume, FailedCellsAreJournaledAsFinalOutcomes)
{
    // A deterministic failure (plain throw) is a final outcome:
    // resume must serve it from the journal, not re-run it.
    const std::string dir = tempDir("resume_failed_cell");
    sim::SimParams params;
    SweepOptions opts;
    opts.journal_dir = dir;
    opts.stable_telemetry = true;
    opts.faults = FaultPlan::parse("throw@0");

    std::atomic<int> runs{0};
    auto counting = [&](const SweepRunner::CellSpec &spec,
                        const sim::SimParams &p) {
        ++runs;
        return fakeRun(spec, p);
    };

    SweepRunner first(params, opts);
    first.setCellFn(counting);
    const auto cells1 = first.run({"w1", "w2"}, {"LRU"});
    EXPECT_FALSE(cells1[0].ok());
    ASSERT_EQ(runs.load(), 1); // cell 0 threw before the body

    SweepRunner second(params, opts);
    second.setCellFn(counting);
    const auto cells2 = second.run({"w1", "w2"}, {"LRU"});
    EXPECT_EQ(runs.load(), 1); // nothing re-ran
    EXPECT_EQ(second.stats().resumed_cells, 2u);
    EXPECT_FALSE(cells2[0].ok());
    EXPECT_EQ(cells2[0].error, "injected fault: throw");
    EXPECT_EQ(SweepRunner::toJson(cells1),
              SweepRunner::toJson(cells2));
    fs::remove_all(dir);
}

TEST(SweepResume, StableTelemetryZeroesRetryWait)
{
    sim::SimParams params;
    SweepOptions opts;
    opts.stable_telemetry = true;
    opts.cell_retries = 1;
    opts.retry_base_s = 0.001;
    opts.retry_cap_s = 0.002;
    opts.faults = FaultPlan::parse("transient:1@0");

    SweepRunner runner(params, opts);
    runner.setCellFn(fakeRun);
    const auto cells = runner.run({"w1"}, {"LRU"});
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].attempts, 2u); // attempts stay truthful
    EXPECT_EQ(cells[0].retry_wait_s, 0.0); // wall clock zeroed
    const std::string json = SweepRunner::toJson(cells);
    EXPECT_NE(json.find("\"retry_wait_s\": 0,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"attempts\": 2,"), std::string::npos);
}

// ---- one claim table for every worker thread ---------------------

namespace
{

/** "w0".."w<count-1>" crossed with {LRU, RLR}; cell index by label. */
struct Grid
{
    std::vector<std::string> workloads;
    std::vector<std::string> policies{"LRU", "RLR"};
    std::map<std::string, size_t> index;

    explicit Grid(size_t count)
    {
        for (size_t w = 0; w < count; ++w)
            workloads.push_back(std::string("w").append(
                std::to_string(w)));
        for (const auto &w : workloads)
            for (const auto &p : policies)
                index.emplace(w + ":" + p, index.size());
    }
    size_t size() const { return index.size(); }
    size_t of(const SweepRunner::CellSpec &spec) const
    {
        return index.at(spec.workload + ":" + spec.policy);
    }
};

} // namespace

TEST(SweepResume, SiblingThreadsNeverMergeOrRerunEachOthersCells)
{
    // A journaled sweep: its worker threads share one claim table,
    // so a cell a sibling committed is never claimed a second time.
    const std::string dir = tempDir("sibling_claims");
    const Grid grid(100);
    SweepOptions opts;
    opts.threads = 4;
    opts.journal_dir = dir;

    std::vector<std::atomic<int>> runs(grid.size());
    SweepRunner runner(sim::SimParams{}, opts);
    runner.setCellFn([&](const SweepRunner::CellSpec &spec,
                         const sim::SimParams &p) {
        runs[grid.of(spec)].fetch_add(1);
        return fakeRun(spec, p);
    });
    const auto cells = runner.run(grid.workloads, grid.policies);

    ASSERT_EQ(cells.size(), grid.size());
    EXPECT_EQ(runner.stats().completed_cells, grid.size());
    for (const auto &c : cells) {
        EXPECT_TRUE(c.ok()) << c.workload << "/" << c.policy;
        EXPECT_EQ(runs[grid.of(SweepRunner::CellSpec{
                           c.workload, c.policy, {c.workload}})]
                      .load(),
                  1)
            << c.workload << "/" << c.policy;
    }
    fs::remove_all(dir);
}

namespace
{

/**
 * Child-process body of the signal-drain test: cell @p k raises
 * SIGINT, and every cell at or after k waits for the drain to cancel
 * it. Exits 0 and prints "drain ok" only when the drain left the
 * documented state behind; otherwise prints what broke and exits 1.
 */
void
drainedSweep(const std::string &dir)
{
    const Grid grid(8);
    const size_t k = 3;
    SweepOptions opts;
    opts.threads = 2;
    opts.journal_dir = dir;
    opts.handle_signals = true;

    std::vector<std::atomic<int>> runs(grid.size());
    SweepRunner runner(sim::SimParams{}, opts);
    runner.setCellFn([&](const SweepRunner::CellSpec &spec,
                         const sim::SimParams &p) {
        const size_t i = grid.of(spec);
        runs[i].fetch_add(1);
        if (i == k) {
            // Cells are claimed in order, so every earlier cell is
            // already claimed; let their bodies start (after which
            // they commit) before draining.
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(30);
            for (size_t j = 0; j < k; ++j) {
                while (runs[j].load() == 0 &&
                       std::chrono::steady_clock::now() < deadline) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            }
            std::raise(SIGINT);
        }
        if (i >= k) {
            while (!p.cancel->cancelled()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
            throw util::CancelledError(p.cancel->reason());
        }
        return fakeRun(spec, p);
    });
    const auto cells = runner.run(grid.workloads, grid.policies);

    std::string broken;
    auto check = [&](bool ok, const std::string &what) {
        if (!ok)
            broken += what + "\n";
    };
    check(cells.size() == grid.size(), "cell count");
    check(SweepRunner::interrupted(), "interrupted() is false");
    check(runner.stats().completed_cells +
                  runner.stats().cancelled_cells ==
              grid.size(),
          "completed + cancelled != n");
    for (const auto &c : cells) {
        const std::string label = c.workload + "/" + c.policy;
        const size_t i = grid.of(
            SweepRunner::CellSpec{c.workload, c.policy, {}});
        if (i < k) {
            // Finished before the drain: committed and journaled.
            check(c.ok(), label + " failed: " + c.error);
            check(fs::exists(recordPath(dir, c)),
                  label + " not journaled");
        } else {
            // In flight or never claimed: cancelled, re-run on
            // resume.
            check(c.error == "cancelled: signal",
                  label + " error '" + c.error + "'");
            check(!fs::exists(recordPath(dir, c)),
                  label + " journaled");
        }
        check(runs[i].load() <= 1, label + " ran twice");
    }
    std::fputs(broken.empty() ? "drain ok\n" : broken.c_str(),
               stderr);
    std::exit(broken.empty() ? 0 : 1);
}

} // namespace

TEST(SweepResume, SignalDrainLabelsEveryUnfinishedCell)
{
    // The SIGINT flag is process-global and sticky: drain in a
    // child so later tests in this binary still run.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string dir = tempDir("drain_local");
    EXPECT_EXIT(drainedSweep(dir),
                ::testing::ExitedWithCode(0), "drain ok");
    fs::remove_all(dir);
}

// ---- FaultPlan grammar ------------------------------------------

TEST(FaultPlan, EmptySpecMatchesNothing)
{
    const FaultPlan plan = FaultPlan::parse("");
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.actionFor(0, "w:LRU", 1).kind,
              FaultKind::None);
}

TEST(FaultPlan, SelectsByIndex)
{
    const FaultPlan plan = FaultPlan::parse("throw@3");
    EXPECT_EQ(plan.actionFor(3, "any", 1).kind, FaultKind::Throw);
    EXPECT_EQ(plan.actionFor(2, "any", 1).kind, FaultKind::None);
}

TEST(FaultPlan, SelectsByLabelWithColon)
{
    // Cell labels contain ':' — the selector split must happen at
    // the first '@', not the first ':'.
    const FaultPlan plan = FaultPlan::parse("hang@429.mcf:RLR");
    EXPECT_EQ(plan.actionFor(7, "429.mcf:RLR", 1).kind,
              FaultKind::Hang);
    EXPECT_EQ(plan.actionFor(7, "429.mcf:LRU", 1).kind,
              FaultKind::None);
}

TEST(FaultPlan, TransientCarriesAttemptCount)
{
    const auto action =
        FaultPlan::parse("transient:3@0").actionFor(0, "x", 1);
    EXPECT_EQ(action.kind, FaultKind::Transient);
    EXPECT_EQ(action.fail_attempts, 3u);
}

TEST(FaultPlan, MultipleEntriesFirstMatchWins)
{
    const FaultPlan plan =
        FaultPlan::parse("throw@1,hang@1,abort@2");
    EXPECT_EQ(plan.actionFor(1, "x", 1).kind, FaultKind::Throw);
    EXPECT_EQ(plan.actionFor(2, "x", 1).kind,
              FaultKind::AbortProcess);
}

TEST(FaultPlan, RateIsDeterministicAndBounded)
{
    const FaultPlan all = FaultPlan::parse("throw%1.0");
    const FaultPlan none = FaultPlan::parse("throw%0.0");
    const FaultPlan half = FaultPlan::parse("throw%0.5");
    int hits = 0;
    for (size_t i = 0; i < 200; ++i) {
        EXPECT_EQ(all.actionFor(i, "x", 9).kind,
                  FaultKind::Throw);
        EXPECT_EQ(none.actionFor(i, "x", 9).kind,
                  FaultKind::None);
        // Same (seed, index) always gives the same decision.
        EXPECT_EQ(half.actionFor(i, "x", 9).kind,
                  half.actionFor(i, "x", 9).kind);
        if (half.actionFor(i, "x", 9).kind == FaultKind::Throw)
            ++hits;
    }
    EXPECT_GT(hits, 50);
    EXPECT_LT(hits, 150);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("explode@0"),
                 std::runtime_error); // unknown kind
    EXPECT_THROW(FaultPlan::parse("throw"),
                 std::runtime_error); // no selector
    EXPECT_THROW(FaultPlan::parse("throw@"),
                 std::runtime_error); // empty selector
    EXPECT_THROW(FaultPlan::parse("throw%2.0"),
                 std::runtime_error); // rate out of range
    EXPECT_THROW(FaultPlan::parse("transient:0@1"),
                 std::runtime_error); // zero attempt count
    EXPECT_THROW(FaultPlan::parse("transient:x@1"),
                 std::runtime_error); // junk attempt count
}
