/** @file Tests for the DRAM model. */

#include <gtest/gtest.h>

#include "mem/dram.hh"

using namespace rlr;
using namespace rlr::mem;

namespace
{

cache::MemRequest
read(uint64_t addr)
{
    cache::MemRequest r;
    r.address = addr;
    r.type = trace::AccessType::Load;
    return r;
}

cache::MemRequest
write(uint64_t addr)
{
    cache::MemRequest r;
    r.address = addr;
    r.type = trace::AccessType::Writeback;
    return r;
}

} // namespace

TEST(Dram, RowMissThenRowHit)
{
    DramConfig cfg;
    Dram dram(cfg);
    const uint64_t t1 = dram.access(read(0x10000), 0);
    EXPECT_EQ(t1, cfg.row_miss_latency);
    // Same row: hit latency, serialized behind the open bank.
    const uint64_t t2 = dram.access(read(0x10040), t1);
    EXPECT_EQ(t2, t1 + cfg.row_hit_latency);
    EXPECT_EQ(dram.statSet().value("row_hits"), 1u);
    EXPECT_EQ(dram.statSet().value("row_misses"), 1u);
}

TEST(Dram, DifferentRowsConflictOnSameBank)
{
    DramConfig cfg;
    Dram dram(cfg);
    // Two rows that map to the same bank: row index differs by
    // the bank count.
    const uint64_t row_a = 0;
    const uint64_t row_b = cfg.banks;
    const uint64_t t1 =
        dram.access(read(row_a * cfg.row_bytes), 0);
    const uint64_t t2 =
        dram.access(read(row_b * cfg.row_bytes), 0);
    // Second request waits for the bank.
    EXPECT_GE(t2, t1 + cfg.row_miss_latency);
}

TEST(Dram, IndependentBanksOverlap)
{
    DramConfig cfg;
    Dram dram(cfg);
    const uint64_t t1 = dram.access(read(0), 0);
    const uint64_t t2 =
        dram.access(read(cfg.row_bytes), 0); // next bank
    // Only channel occupancy separates them.
    EXPECT_EQ(t1, cfg.row_miss_latency);
    EXPECT_EQ(t2, cfg.channel_cycles + cfg.row_miss_latency);
}

TEST(Dram, PostedWritesReturnImmediately)
{
    Dram dram;
    const uint64_t t = dram.access(write(0x5000), 123);
    EXPECT_EQ(t, 123u);
    EXPECT_EQ(dram.statSet().value("writes"), 1u);
}

TEST(Dram, WritesConsumeChannelBandwidth)
{
    DramConfig cfg;
    Dram dram(cfg);
    // Saturate the channel with writes, then read.
    for (int i = 0; i < 10; ++i)
        dram.access(write(0x1000 + 64 * i), 0);
    const uint64_t t = dram.access(read(0x90000), 0);
    // The read starts only after the queued write bursts.
    EXPECT_GE(t, 10 * cfg.channel_cycles + cfg.row_miss_latency);
}

TEST(Dram, FutureWritesDoNotRunAwayBankState)
{
    DramConfig cfg;
    Dram dram(cfg);
    // A write posted far in the future (a fill-time writeback)
    // must not delay a near-term read by more than channel time.
    dram.access(write(0x2000), 1'000'000);
    const uint64_t t = dram.access(read(0x2000), 0);
    EXPECT_LE(t, 1'000'000 + cfg.channel_cycles +
                     cfg.row_miss_latency);
    // And a read at the same row issued at now=0 is not pushed to
    // the write's completion horizon plus service.
    Dram fresh(cfg);
    fresh.access(write(0x2000), 500);
    const uint64_t t2 = fresh.access(read(0x3000), 0);
    EXPECT_LE(t2, 504 + cfg.row_miss_latency);
}

TEST(Dram, ReadCountsTracked)
{
    Dram dram;
    dram.access(read(0), 0);
    dram.access(read(64), 0);
    dram.access(write(128), 0);
    EXPECT_EQ(dram.statSet().value("reads"), 2u);
    EXPECT_EQ(dram.statSet().value("writes"), 1u);
}

namespace
{

bool
hasKey(const stats::StatSet &set, const std::string &key)
{
    for (const auto &[name, value] : set.items()) {
        if (name == key)
            return true;
    }
    return false;
}

} // namespace

TEST(Dram, CountersExportOnlyOnceTouched)
{
    // The export lists only counters the run touched: a read-only
    // stream has no "writes" key (not a zero one), and fig10's
    // golden digests depend on that.
    Dram dram;
    for (uint64_t a = 0; a < 64 * 64; a += 64)
        dram.access(read(a), a);
    EXPECT_TRUE(hasKey(dram.statSet(), "reads"));
    EXPECT_TRUE(hasKey(dram.statSet(), "row_misses"));
    EXPECT_TRUE(hasKey(dram.statSet(), "row_hits"));
    EXPECT_FALSE(hasKey(dram.statSet(), "writes"));

    // Zeroing keeps the touched set; the first write adds its key.
    dram.resetStats();
    EXPECT_TRUE(hasKey(dram.statSet(), "reads"));
    EXPECT_EQ(dram.statSet().value("reads"), 0u);
    dram.access(write(0), 0);
    EXPECT_TRUE(hasKey(dram.statSet(), "writes"));
    EXPECT_EQ(dram.statSet().value("writes"), 1u);
}
