/**
 * @file
 * SweepJournal durability tests: atomic file writes, header and
 * cell-record round trips, resume verification (version / master
 * seed / config hash), and corrupt-record recovery (truncated
 * records, swapped records, deliberately corrupted appends).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/journal.hh"
#include "util/atomic_file.hh"

using namespace rlr;
using sim::JournalHeader;
using sim::SweepCell;
using sim::SweepJournal;
using sim::SweepRunner;

namespace fs = std::filesystem;

namespace
{

std::string
tempDir(const char *name)
{
    const std::string dir = ::testing::TempDir() + name;
    fs::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

SweepRunner::CellSpec
spec(const std::string &w, const std::string &p)
{
    return SweepRunner::CellSpec{w, p, {w}};
}

/** A fully populated successful cell. */
SweepCell
okCell()
{
    SweepCell cell;
    cell.workload = "429.mcf";
    cell.policy = "RLR";
    cell.seed = 0xdeadbeefcafef00dULL; // above 2^53 on purpose
    cell.attempts = 2;
    cell.retry_wait_s = 0.125;
    cell.start_seconds = 1.5;
    cell.wall_seconds = 2.25;
    cell.mips = 3.75;
    sim::CoreResult core;
    core.workload = "429.mcf";
    core.ipc = 0.7312345678;
    core.instructions = 1'200'000;
    core.cycles = 1'641'000;
    cell.result.cores.push_back(core);
    cell.result.total_instructions = 1'200'000;
    cell.result.llc_demand_accesses = 50'000;
    cell.result.llc_demand_hits = 20'000;
    cell.result.llc_demand_misses = 30'000;
    cell.result.stats.counters = {{"llc.LD_hit", 20'000},
                                  {"llc.LD_miss", 30'000}};
    cell.result.stats.formulas = {{"llc.demand_mpki", 25.0}};
    return cell;
}

JournalHeader
header(uint64_t seed, uint64_t config, uint64_t n)
{
    JournalHeader h;
    h.master_seed = seed;
    h.config_hash = config;
    h.build = "test-build";
    h.n_cells = n;
    return h;
}

} // namespace

TEST(AtomicFile, WritesAndOverwrites)
{
    const std::string path =
        ::testing::TempDir() + "atomic_file_test.txt";
    util::atomicWriteFile(path, "first");
    EXPECT_EQ(slurp(path), "first");
    util::atomicWriteFile(path, "second, longer content");
    EXPECT_EQ(slurp(path), "second, longer content");
    // No temp file left behind next to the target.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    fs::remove(path);
}

TEST(AtomicFile, FailsCleanlyOnBadPath)
{
    EXPECT_THROW(util::atomicWriteFile(
                     "/nonexistent-dir-xyz/file.txt", "data"),
                 std::runtime_error);
}

// Regression: concurrent writers to the SAME destination (e.g.
// journal records for duplicate sweep cells — fig12 prepends LRU,
// so `--policies LRU,...` schedules the LRU cell twice) used to
// share one pid-keyed temp file; whichever renamed second found
// it already stolen and threw ENOENT. Every writer must succeed
// and the survivor must be one intact payload.
TEST(AtomicFile, ConcurrentWritersToOnePathAllSucceed)
{
    const std::string path =
        ::testing::TempDir() + "atomic_file_race.txt";
    constexpr int kWriters = 8;
    constexpr int kRounds = 50;
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            const std::string payload(64, 'a' + w);
            for (int r = 0; r < kRounds; ++r) {
                try {
                    util::atomicWriteFile(path, payload);
                } catch (const std::exception &) {
                    ++failures;
                }
            }
        });
    }
    for (auto &t : writers)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    const std::string final = slurp(path);
    ASSERT_EQ(final.size(), 64u);
    EXPECT_EQ(final, std::string(64, final[0]));
    fs::remove(path);
}

TEST(Journal, HeaderRoundTrip)
{
    JournalHeader h = header(0xdeadbeefcafef00dULL,
                             0x0123456789abcdefULL, 12);
    const auto parsed =
        SweepJournal::headerFromJson(SweepJournal::headerToJson(h));
    EXPECT_EQ(parsed.version, h.version);
    EXPECT_EQ(parsed.master_seed, h.master_seed);
    EXPECT_EQ(parsed.config_hash, h.config_hash);
    EXPECT_EQ(parsed.build, h.build);
    EXPECT_EQ(parsed.n_cells, h.n_cells);
}

TEST(Journal, CellRoundTripOk)
{
    const SweepCell cell = okCell();
    const SweepCell back =
        SweepJournal::cellFromJson(SweepJournal::cellToJson(cell));
    EXPECT_EQ(back.workload, cell.workload);
    EXPECT_EQ(back.policy, cell.policy);
    EXPECT_EQ(back.seed, cell.seed); // exact u64, above 2^53
    EXPECT_EQ(back.attempts, cell.attempts);
    EXPECT_EQ(back.retry_wait_s, cell.retry_wait_s);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ(back.result.total_instructions,
              cell.result.total_instructions);
    EXPECT_EQ(back.result.llc_demand_hits,
              cell.result.llc_demand_hits);
    ASSERT_EQ(back.result.cores.size(), 1u);
    EXPECT_EQ(back.result.cores[0].instructions,
              cell.result.cores[0].instructions);
    EXPECT_EQ(back.result.cores[0].cycles,
              cell.result.cores[0].cycles);
    EXPECT_EQ(back.result.stats.counter("llc.LD_hit"), 20'000u);

    // %.10g doubles re-print stably after a parse round trip —
    // the property byte-identical resume rests on.
    EXPECT_EQ(SweepJournal::cellToJson(back),
              SweepJournal::cellToJson(cell));
}

TEST(Journal, CellRoundTripError)
{
    SweepCell cell;
    cell.workload = "w";
    cell.policy = "p";
    cell.seed = 7;
    cell.error = "timeout: attempt exceeded --cell-timeout 2s";
    cell.timed_out = true;
    cell.attempts = 3;
    const SweepCell back =
        SweepJournal::cellFromJson(SweepJournal::cellToJson(cell));
    EXPECT_FALSE(back.ok());
    EXPECT_EQ(back.error, cell.error);
    EXPECT_TRUE(back.timed_out);
    EXPECT_EQ(back.attempts, 3u);
    EXPECT_TRUE(back.result.cores.empty());
}

TEST(Journal, TruncatedRecordRejected)
{
    std::string body = SweepJournal::cellToJson(okCell());
    body.resize(body.size() / 2);
    EXPECT_THROW(SweepJournal::cellFromJson(body),
                 std::runtime_error);
}

TEST(Journal, SpecHashDistinguishesCells)
{
    const uint64_t a = SweepJournal::specHash(spec("w", "LRU"), 1);
    EXPECT_EQ(a, SweepJournal::specHash(spec("w", "LRU"), 1));
    EXPECT_NE(a, SweepJournal::specHash(spec("w", "RLR"), 1));
    EXPECT_NE(a, SweepJournal::specHash(spec("x", "LRU"), 1));
    EXPECT_NE(a, SweepJournal::specHash(spec("w", "LRU"), 2));
}

TEST(Journal, AppendThenReopenLoads)
{
    const std::string dir = tempDir("journal_reopen");
    const JournalHeader h = header(42, 1111, 1);
    const SweepCell cell = okCell();
    const uint64_t hash =
        SweepJournal::specHash(spec(cell.workload, cell.policy),
                               cell.seed);
    {
        SweepJournal journal(dir, h);
        EXPECT_EQ(journal.loadedRecords(), 0u);
        journal.append(hash, cell);
    }
    SweepJournal journal(dir, h);
    EXPECT_EQ(journal.loadedRecords(), 1u);
    SweepCell out;
    ASSERT_TRUE(journal.load(
        hash, spec(cell.workload, cell.policy), cell.seed, out));
    EXPECT_EQ(out.result.llc_demand_hits,
              cell.result.llc_demand_hits);
    fs::remove_all(dir);
}

TEST(Journal, MasterSeedMismatchRefuses)
{
    const std::string dir = tempDir("journal_seed_mismatch");
    { SweepJournal journal(dir, header(42, 1111, 1)); }
    try {
        SweepJournal journal(dir, header(43, 1111, 1));
        FAIL() << "expected a master-seed mismatch error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("master seed"),
                  std::string::npos)
            << e.what();
    }
    fs::remove_all(dir);
}

TEST(Journal, ConfigHashMismatchRefuses)
{
    const std::string dir = tempDir("journal_cfg_mismatch");
    { SweepJournal journal(dir, header(42, 1111, 1)); }
    try {
        SweepJournal journal(dir, header(42, 2222, 1));
        FAIL() << "expected a config-hash mismatch error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("config hash"),
                  std::string::npos)
            << e.what();
    }
    fs::remove_all(dir);
}

TEST(Journal, CellCountMismatchRefuses)
{
    const std::string dir = tempDir("journal_count_mismatch");
    { SweepJournal journal(dir, header(42, 1111, 2)); }
    EXPECT_THROW(SweepJournal(dir, header(42, 1111, 3)),
                 std::runtime_error);
    fs::remove_all(dir);
}

TEST(Journal, CorruptHeaderRefusesWithPath)
{
    const std::string dir = tempDir("journal_bad_header");
    { SweepJournal journal(dir, header(42, 1111, 1)); }
    util::atomicWriteFile(dir + "/header.json", "{ not json");
    try {
        SweepJournal journal(dir, header(42, 1111, 1));
        FAIL() << "expected an unreadable-header error";
    } catch (const std::runtime_error &e) {
        // The error names the offending file.
        EXPECT_NE(std::string(e.what()).find("header.json"),
                  std::string::npos)
            << e.what();
    }
    fs::remove_all(dir);
}

// Regression: a journal written by a build predating the
// record-schema member must be refused on resume, not silently
// re-run. The header below is
// hand-written the way schema-1 builds emitted it — no "schema"
// member at all, which headerFromJson interprets as schema 1.
TEST(Journal, OldSchemaHeaderRefusesResume)
{
    const std::string dir = tempDir("journal_old_schema");
    fs::create_directories(dir);
    util::atomicWriteFile(
        dir + "/header.json",
        "{\n"
        "  \"format\": \"rlr-sweep-journal\",\n"
        "  \"version\": 1,\n"
        "  \"master_seed\": \"42\",\n"
        "  \"config_hash\": \"0000000000000457\",\n"
        "  \"build\": \"test-build\",\n"
        "  \"n_cells\": 1\n"
        "}\n");
    try {
        SweepJournal journal(dir, header(42, 1111, 1));
        FAIL() << "expected a schema mismatch error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("schema 1"), std::string::npos)
            << what;
        EXPECT_NE(what.find("refusing to resume"),
                  std::string::npos)
            << what;
    }
    fs::remove_all(dir);
}

TEST(Journal, HeaderRoundTripKeepsSchemaAndWriter)
{
    JournalHeader h = header(7, 0x457, 3);
    h.writer = "pid 1234";
    const auto parsed =
        SweepJournal::headerFromJson(SweepJournal::headerToJson(h));
    EXPECT_EQ(parsed.schema, sim::kJournalSchema);
    EXPECT_EQ(parsed.writer, "pid 1234");
}

TEST(Journal, ReapStaleMarkers)
{
    const std::string dir = tempDir("journal_reap");
    const JournalHeader h = header(42, 1111, 3);
    const SweepCell cell = okCell();
    const uint64_t committed_hash = SweepJournal::specHash(
        spec(cell.workload, cell.policy), cell.seed);
    SweepJournal journal(dir, h);
    journal.append(committed_hash, cell);

    // A marker whose cell already has a durable record is reaped
    // regardless of age (append removes its own marker, so write
    // one back by hand)...
    journal.markInFlight(
        committed_hash, spec(cell.workload, cell.policy), 1);
    // ...an old orphan marker is reaped by age...
    journal.markInFlight(0x1111, spec("470.lbm", "LRU"), 1);
    const std::string orphan =
        dir + "/inflight-0000000000001111.json";
    fs::last_write_time(
        orphan, fs::file_time_type::clock::now() -
                    std::chrono::seconds(3600));
    // ...and a fresh marker for a live cell is kept.
    journal.markInFlight(0x2222, spec("429.mcf", "LRU"), 1);

    SweepJournal reopened(dir, h); // loads the committed record
    EXPECT_EQ(reopened.reapStaleMarkers(10.0), 2u);
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_TRUE(fs::exists(
        dir + "/inflight-0000000000002222.json"));
    fs::remove_all(dir);
}

TEST(Journal, TruncatedRecordOnDiskIsSkippedNotFatal)
{
    const std::string dir = tempDir("journal_truncated");
    const JournalHeader h = header(42, 1111, 1);
    const SweepCell cell = okCell();
    const uint64_t hash =
        SweepJournal::specHash(spec(cell.workload, cell.policy),
                               cell.seed);
    { SweepJournal(dir, h).append(hash, cell); }
    // Truncate the record in place.
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename();
        if (name.rfind("cell-", 0) == 0) {
            const std::string text = slurp(entry.path());
            util::atomicWriteFile(
                entry.path(),
                text.substr(0, text.size() / 2));
        }
    }
    SweepJournal journal(dir, h); // warns, does not throw
    SweepCell out;
    EXPECT_FALSE(journal.load(
        hash, spec(cell.workload, cell.policy), cell.seed, out));
    fs::remove_all(dir);
}

TEST(Journal, CorruptAppendIsUnreadableOnReload)
{
    const std::string dir = tempDir("journal_corrupt_append");
    const JournalHeader h = header(42, 1111, 1);
    const SweepCell cell = okCell();
    const uint64_t hash =
        SweepJournal::specHash(spec(cell.workload, cell.policy),
                               cell.seed);
    { SweepJournal(dir, h).append(hash, cell, /*corrupt=*/true); }
    SweepJournal journal(dir, h);
    SweepCell out;
    EXPECT_FALSE(journal.load(
        hash, spec(cell.workload, cell.policy), cell.seed, out));
    fs::remove_all(dir);
}

TEST(Journal, SwappedRecordDetectedBySpecCheck)
{
    // A record whose content belongs to a different cell (e.g.
    // copied over by hand) must not be served for this spec.
    const std::string dir = tempDir("journal_swapped");
    const JournalHeader h = header(42, 1111, 2);
    SweepCell cell = okCell();
    const uint64_t hash_other =
        SweepJournal::specHash(spec("470.lbm", "LRU"), 999);
    { SweepJournal(dir, h).append(hash_other, cell); }
    SweepJournal journal(dir, h);
    SweepCell out;
    EXPECT_FALSE(
        journal.load(hash_other, spec("470.lbm", "LRU"), 999, out));
    fs::remove_all(dir);
}

TEST(Journal, SummarizeListsRecords)
{
    const std::string dir = tempDir("journal_summary");
    const JournalHeader h = header(42, 1111, 2);
    SweepCell good = okCell();
    SweepCell bad;
    bad.workload = "w2";
    bad.policy = "LRU";
    bad.seed = 5;
    bad.error = "injected fault: throw";
    {
        SweepJournal journal(dir, h);
        journal.append(SweepJournal::specHash(
                           spec(good.workload, good.policy),
                           good.seed),
                       good);
        journal.append(SweepJournal::specHash(
                           spec(bad.workload, bad.policy),
                           bad.seed),
                       bad);
    }
    const std::string summary = SweepJournal::summarize(dir);
    EXPECT_NE(summary.find("master seed 42"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("429.mcf:RLR"), std::string::npos);
    EXPECT_NE(summary.find("injected fault: throw"),
              std::string::npos);
    EXPECT_NE(summary.find("1 ok, 1 failed"), std::string::npos)
        << summary;
    fs::remove_all(dir);
}

TEST(Journal, ConfigHashCoversParamsAndSpecs)
{
    sim::SimParams a;
    sim::SimParams b = a;
    std::vector<SweepRunner::CellSpec> specs = {spec("w", "LRU")};
    EXPECT_EQ(sim::sweepConfigHash(a, specs),
              sim::sweepConfigHash(b, specs));
    b.sim_instructions += 1;
    EXPECT_NE(sim::sweepConfigHash(a, specs),
              sim::sweepConfigHash(b, specs));
    auto specs2 = specs;
    specs2.push_back(spec("w", "RLR"));
    EXPECT_NE(sim::sweepConfigHash(a, specs),
              sim::sweepConfigHash(a, specs2));
}
