#include "mem/dram.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rlr::mem
{

Dram::Dram(DramConfig config, std::string name)
    : config_(config), name_(std::move(name)), stats_(name_)
{
    util::ensure(config_.banks > 0, "Dram: zero banks");
    banks_.resize(config_.banks);
}

uint64_t
Dram::access(const cache::MemRequest &req, uint64_t now)
{
    const uint64_t row = req.address / config_.row_bytes;
    Bank &bank = banks_[row % config_.banks];

    const bool row_hit = bank.open_row == row;
    const uint32_t service = row_hit ? config_.row_hit_latency
                                     : config_.row_miss_latency;
    ++(row_hit ? row_hits_ : row_misses_).get();

    if (req.type == trace::AccessType::Writeback) {
        ++writes_.get();
        // Posted write: buffered in the write queue and drained
        // opportunistically in row-sorted batches (as real
        // controllers do), so it charges channel bandwidth but
        // does not perturb the banks' open rows or delay reads
        // beyond that. The requester never waits, and a write
        // arriving "in the future" (at a fill timestamp) must not
        // push bank state unboundedly ahead of program time.
        const uint64_t start = std::max(now, channel_free_);
        channel_free_ = start + config_.channel_cycles;
        return now;
    }

    // Read: wait for the bank, then occupy the shared channel.
    uint64_t start = std::max(now, bank.busy_until);
    start = std::max(start, channel_free_);
    const uint64_t done = start + service;

    bank.open_row = row;
    bank.busy_until = done;
    channel_free_ = start + config_.channel_cycles;

    ++reads_.get();
    read_latency_.sample(done - now);
    return done;
}

void
Dram::describeStats(stats::Registry &reg, const std::string &prefix)
{
    reg.bindStatSet(prefix, &stats_,
                    "DRAM access counters of " + name_);
    reg.formula(
        prefix + ".row_hit_rate",
        [this](const stats::Registry &) {
            const auto hits = row_hits_.value();
            const auto misses = row_misses_.value();
            return stats::hitRate(hits, hits + misses);
        },
        "open-row hit rate in [0, 1]");
    reg.bindDistribution(
        prefix + ".read_latency", &read_latency_,
        "read service latency (cycles, incl. queuing)");
}

} // namespace rlr::mem
