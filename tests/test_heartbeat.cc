/**
 * @file
 * Unit tests for the sweep heartbeat (obs/heartbeat.hh): JSON
 * round-trip, truncation detection via the eor marker, the
 * writer's lifecycle (periodic beats, worker slots, final done
 * beat), and read atomicity under a fast concurrent writer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "obs/heartbeat.hh"

using namespace rlr;
namespace fs = std::filesystem;

namespace
{

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() /
            ("rlr_hb_test_" + name + "_" +
             std::to_string(::getpid()) + ".json"))
        .string();
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

} // namespace

TEST(Heartbeat, JsonRoundTrip)
{
    obs::Heartbeat hb;
    hb.sequence = 17;
    hb.elapsed_s = 12.5;
    hb.cells_total = 40;
    hb.cells_done = 12;
    hb.cells_failed = 1;
    hb.cells_resumed = 3;
    hb.cells_running = 4;
    hb.throughput = 0.96;
    hb.eta_s = 26.0;
    hb.rss_kb = 123456;
    hb.max_rss_kb = 150000;
    hb.done = false;
    hb.workers.push_back(
        obs::HeartbeatWorker{0, "429.mcf:RLR", 3.25});
    hb.workers.push_back(
        obs::HeartbeatWorker{2, "403.gcc:\"odd\"", 45.0});

    const obs::Heartbeat back =
        obs::heartbeatFromJson(obs::heartbeatToJson(hb));
    EXPECT_EQ(back.sequence, 17u);
    EXPECT_DOUBLE_EQ(back.elapsed_s, 12.5);
    EXPECT_EQ(back.cells_total, 40u);
    EXPECT_EQ(back.cells_done, 12u);
    EXPECT_EQ(back.cells_failed, 1u);
    EXPECT_EQ(back.cells_resumed, 3u);
    EXPECT_EQ(back.cells_running, 4u);
    EXPECT_DOUBLE_EQ(back.throughput, 0.96);
    EXPECT_EQ(back.rss_kb, 123456u);
    EXPECT_FALSE(back.done);
    ASSERT_EQ(back.workers.size(), 2u);
    EXPECT_EQ(back.workers[0].cell, "429.mcf:RLR");
    EXPECT_EQ(back.workers[1].worker, 2u);
    EXPECT_EQ(back.workers[1].cell, "403.gcc:\"odd\"");
    EXPECT_DOUBLE_EQ(back.workers[1].age_s, 45.0);
}

TEST(Heartbeat, RejectsForeignAndTruncated)
{
    EXPECT_THROW(obs::heartbeatFromJson("{}"),
                 std::runtime_error);
    EXPECT_THROW(
        obs::heartbeatFromJson("{\"format\": \"rlr-profile\"}"),
        std::runtime_error);
    // A valid document with the eor marker chopped off must be
    // rejected, not half-parsed.
    std::string text = obs::heartbeatToJson(obs::Heartbeat{});
    const size_t eor = text.find("\"eor\"");
    ASSERT_NE(eor, std::string::npos);
    text.resize(eor);
    text += "\"x\": 1\n}\n";
    EXPECT_THROW(obs::heartbeatFromJson(text),
                 std::runtime_error);
}

TEST(Heartbeat, ReadsWorkersWithAttemptKey)
{
    // Earlier builds wrote an "attempt" member per worker; such a
    // file still parses, and the member is dropped.
    obs::Heartbeat hb;
    hb.workers.push_back(obs::HeartbeatWorker{1, "429.mcf:RLR", 2.5});
    std::string text = obs::heartbeatToJson(hb);
    const std::string age = "\"age_s\"";
    text.insert(text.find(age), "\"attempt\": 3, ");
    const obs::Heartbeat back = obs::heartbeatFromJson(text);
    ASSERT_EQ(back.workers.size(), 1u);
    EXPECT_EQ(back.workers[0].worker, 1u);
    EXPECT_EQ(back.workers[0].cell, "429.mcf:RLR");
    EXPECT_DOUBLE_EQ(back.workers[0].age_s, 2.5);
}

TEST(Heartbeat, WriterLifecycle)
{
    const std::string path = tempPath("lifecycle");
    {
        obs::HeartbeatWriter writer(path, 0.01, 6, 2);
        writer.cellStarted("429.mcf:RLR");
        obs::Heartbeat snap = writer.snapshot();
        EXPECT_EQ(snap.cells_total, 6u);
        EXPECT_EQ(snap.cells_resumed, 2u);
        EXPECT_EQ(snap.cells_running, 1u);
        ASSERT_EQ(snap.workers.size(), 1u);
        EXPECT_EQ(snap.workers[0].cell, "429.mcf:RLR");

        writer.cellFinished(true);
        writer.cellStarted("403.gcc:LRU");
        writer.cellFinished(false);
        writer.finish();
    }
    // The final beat is flushed by finish(): done, counts settled.
    const obs::Heartbeat hb =
        obs::heartbeatFromJson(slurp(path));
    EXPECT_TRUE(hb.done);
    EXPECT_EQ(hb.cells_done, 2u);
    EXPECT_EQ(hb.cells_failed, 1u);
    EXPECT_EQ(hb.cells_running, 0u);
    EXPECT_TRUE(hb.workers.empty());
    fs::remove(path);
}

TEST(Heartbeat, FinishIsIdempotent)
{
    const std::string path = tempPath("idempotent");
    obs::HeartbeatWriter writer(path, 0.01, 1, 0);
    writer.finish();
    writer.finish(); // second call (and the destructor) no-op
    const obs::Heartbeat hb =
        obs::heartbeatFromJson(slurp(path));
    EXPECT_TRUE(hb.done);
    fs::remove(path);
}

TEST(Heartbeat, ReadersNeverSeeTornWrites)
{
    const std::string path = tempPath("atomic");
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};

    obs::HeartbeatWriter writer(path, 0.01, 100, 0);
    // Churn the worker table so the beats keep changing size.
    std::thread churn([&] {
        unsigned i = 0;
        while (!stop.load()) {
            writer.cellStarted(
                "w" + std::to_string(i++ % 7) + ":LRU");
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    });

    std::thread reader([&] {
        while (!stop.load()) {
            const std::string text = slurp(path);
            if (text.empty())
                continue; // not written yet
            // Atomic rename means every read parses cleanly with
            // the eor marker intact.
            obs::Heartbeat hb;
            ASSERT_NO_THROW(hb = obs::heartbeatFromJson(text));
            EXPECT_EQ(hb.cells_total, 100u);
            ++reads;
        }
    });

    // Churn for 300 ms, and on until the reader has parsed a beat:
    // each write fsyncs, which can take longer than that on a busy
    // disk. The cap only keeps a broken writer from hanging.
    const auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    while (reads.load() == 0 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(30))
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stop.store(true);
    churn.join();
    reader.join();
    writer.finish();
    EXPECT_GT(reads.load(), 0u);
    fs::remove(path);
}
