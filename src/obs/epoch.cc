#include "obs/epoch.hh"

#include <algorithm>
#include <string_view>

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
    series_.push_back(cur_);
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
    cur_ = EpochSample{};
    series_.clear();
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
        prefix + ".count", [this] { return uint64_t{series_.size()}; },
        "closed epochs (including a final partial one)");
    // Closed epochs never change, so the registry holds their
    // values. The keys go in string order ("e10_*" before "e2_*"),
    // the order the golden files pin.
    using Field = uint64_t EpochSample::*;
    std::vector<std::pair<std::string_view, Field>> fields = {
        {"accesses", &EpochSample::accesses},
        {"misses", &EpochSample::misses},
        {"demand_accesses", &EpochSample::demand_accesses},
        {"demand_misses", &EpochSample::demand_misses},
        {"evictions", &EpochSample::evictions},
        {"bypasses", &EpochSample::bypasses},
        {"victim_priority_sum", &EpochSample::victim_priority_sum},
        {"occupancy", &EpochSample::occupancy}};
    if (!scalar_name_.empty())
        fields.emplace_back(scalar_name_, &EpochSample::scalar);
    std::vector<std::pair<std::string, uint64_t>> series;
    for (size_t k = 0; k < series_.size(); ++k) {
        for (const auto &[name, field] : fields) {
            series.emplace_back(util::format("e{}_{}", k, name),
                                series_[k].*field);
        }
    }
    std::sort(series.begin(), series.end());
    for (const auto &[name, value] : series)
        reg.counter(prefix + "." + name) = value;
    reg.bindDistribution(prefix + ".victim_priority",
                         &victim_priority_,
                         "policy priority of evicted lines");
    reg.bindDistribution(prefix + ".set_accesses", &heat_accesses_,
                         "per-set access heatmap (bucket = set)");
    reg.bindDistribution(prefix + ".set_misses", &heat_misses_,
                         "per-set miss heatmap (bucket = set)");
}

} // namespace rlr::obs
