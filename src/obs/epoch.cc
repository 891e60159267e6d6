#include "obs/epoch.hh"

#include "util/logging.hh"

namespace rlr::obs
{

EpochSampler::EpochSampler(uint64_t length) : length_(length)
{
    util::ensure(length_ >= 1, "EpochSampler: zero epoch length");
}

void
EpochSampler::attach(const cache::CacheGeometry &geom,
                     cache::LineCounter valid_lines)
{
    heat_accesses_ = util::Histogram(geom.numSets(), 1);
    heat_misses_ = util::Histogram(geom.numSets(), 1);
    occupancy_ = valid_lines;
    reset();
}

void
EpochSampler::setScalarProvider(std::string name, Provider p)
{
    scalar_name_ = std::move(name);
    scalar_ = std::move(p);
}

void
EpochSampler::onAccess(uint32_t set, const cache::MemRequest &req,
                       bool hit)
{
    const trace::AccessType type = req.type;
    ++total_accesses_;
    ++cur_.accesses;
    heat_accesses_.sample(set);
    if (trace::isDemand(type))
        ++cur_.demand_accesses;
    if (!hit) {
        ++cur_.misses;
        heat_misses_.sample(set);
        if (trace::isDemand(type))
            ++cur_.demand_misses;
    }
    if (total_accesses_ % length_ == 0)
        closeEpoch();
}

void
EpochSampler::onEviction(uint32_t, uint32_t, uint64_t,
                         const cache::MemRequest &, uint64_t priority)
{
    ++cur_.evictions;
    cur_.victim_priority_sum += priority;
    victim_priority_.sample(priority);
}

void
EpochSampler::onBypass(uint32_t, const cache::MemRequest &,
                       cache::BypassReason)
{
    ++cur_.bypasses;
}

void
EpochSampler::closeEpoch()
{
    if (cur_.empty())
        return;
    cur_.occupancy = occupancy_();
    cur_.scalar = scalar_ ? scalar_() : 0;

    const std::string e = "e" + std::to_string(epochs_) + "_";
    series_.counter(e + "accesses") = cur_.accesses;
    series_.counter(e + "misses") = cur_.misses;
    series_.counter(e + "demand_accesses") = cur_.demand_accesses;
    series_.counter(e + "demand_misses") = cur_.demand_misses;
    series_.counter(e + "evictions") = cur_.evictions;
    series_.counter(e + "bypasses") = cur_.bypasses;
    series_.counter(e + "victim_priority_sum") =
        cur_.victim_priority_sum;
    series_.counter(e + "occupancy") = cur_.occupancy;
    if (!scalar_name_.empty())
        series_.counter(e + scalar_name_) = cur_.scalar;

    ++epochs_;
    cur_ = EpochSample{};
}

void
EpochSampler::finish()
{
    closeEpoch();
}

void
EpochSampler::reset()
{
    total_accesses_ = 0;
    epochs_ = 0;
    cur_ = EpochSample{};
    series_ = stats::StatSet{"epoch"};
    victim_priority_.reset();
    heat_accesses_.reset();
    heat_misses_.reset();
}

void
EpochSampler::describeStats(stats::Registry &reg,
                            const std::string &cache_prefix)
{
    const std::string prefix = cache_prefix + ".epoch";
    // The registry snapshot is taken at end of run; flushing here
    // makes the final partial epoch part of the exported series.
    finish();
    reg.bindCounter(
        prefix + ".length", [this] { return length_; },
        "epoch length in cache accesses");
    reg.bindCounter(
        prefix + ".count", [this] { return epochs_; },
        "closed epochs (including a final partial one)");
    reg.bindStatSet(prefix, &series_,
                    "per-epoch telemetry series");
    reg.bindDistribution(prefix + ".victim_priority",
                         &victim_priority_,
                         "policy priority of evicted lines");
    reg.bindDistribution(prefix + ".set_accesses", &heat_accesses_,
                         "per-set access heatmap (bucket = set)");
    reg.bindDistribution(prefix + ".set_misses", &heat_misses_,
                         "per-set miss heatmap (bucket = set)");
}

} // namespace rlr::obs
