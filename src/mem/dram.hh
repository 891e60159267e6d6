/**
 * @file
 * Main-memory model: banked DRAM with open-row tracking and a
 * shared data channel. Detailed enough for replacement policies to
 * feel bandwidth/locality pressure (extra misses cost real time,
 * bursts queue up), while staying fast for large sweeps.
 */

#ifndef RLR_MEM_DRAM_HH
#define RLR_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/memory_interface.hh"
#include "stats/registry.hh"
#include "stats/stats.hh"
#include "util/histogram.hh"

namespace rlr::mem
{

/** Timing/shape parameters of the DRAM model. */
struct DramConfig
{
    /** Cycles to serve a read that hits the open row. */
    uint32_t row_hit_latency = 55;
    /** Cycles to serve a read that must activate a new row. */
    uint32_t row_miss_latency = 165;
    /** Number of independent banks. */
    uint32_t banks = 16;
    /** Shared channel occupancy per transfer (cycles). */
    uint32_t channel_cycles = 4;
    /** Row size in bytes (row index = address / row_bytes). */
    uint64_t row_bytes = 2048;
};

/** Banked DRAM behind the LLC. */
class Dram : public cache::MemoryLevel
{
  public:
    explicit Dram(DramConfig config = {}, std::string name = "DRAM");

    uint64_t access(const cache::MemRequest &req,
                    uint64_t now) override;

    const std::string &name() const override { return name_; }

    stats::StatSet &statSet() { return stats_; }
    const stats::StatSet &statSet() const { return stats_; }

    /**
     * Mount DRAM statistics under @p prefix: the access counters,
     * the derived row-hit rate, and the read-latency distribution
     * (service time including bank/channel queuing).
     */
    void describeStats(stats::Registry &reg,
                       const std::string &prefix);

    /** Read service latency (cycles, incl. queuing) histogram. */
    const util::Histogram &readLatency() const
    {
        return read_latency_;
    }

    void
    resetStats()
    {
        stats_.reset();
        read_latency_.reset();
    }

    const DramConfig &config() const { return config_; }

  private:
    struct Bank
    {
        uint64_t open_row = ~0ULL;
        uint64_t busy_until = 0;
    };

    DramConfig config_;
    std::string name_;
    std::vector<Bank> banks_;
    uint64_t channel_free_ = 0;
    stats::StatSet stats_;
    // Per-access counters, registered in stats_ on first touch
    // (see stats::LazyCounter): a read-only stream exports no
    // "writes" key.
    stats::LazyCounter row_hits_{stats_, "row_hits"};
    stats::LazyCounter row_misses_{stats_, "row_misses"};
    stats::LazyCounter reads_{stats_, "reads"};
    stats::LazyCounter writes_{stats_, "writes"};
    /** 32 x 16-cycle buckets cover hit/miss/queued latencies. */
    util::Histogram read_latency_{32, 16};
};

} // namespace rlr::mem

#endif // RLR_MEM_DRAM_HH
