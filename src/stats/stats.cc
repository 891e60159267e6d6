#include "stats/stats.hh"

#include <algorithm>
#include <cmath>

namespace rlr::stats
{

void
RunningStat::sample(double v)
{
    ++n_;
    if (n_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
}

double
RunningStat::variance() const
{
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
safeDiv(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

double
mpki(uint64_t misses, uint64_t instructions)
{
    return safeDiv(static_cast<double>(misses) * 1000.0,
                   static_cast<double>(instructions));
}

double
hitRate(uint64_t hits, uint64_t accesses)
{
    return safeDiv(static_cast<double>(hits),
                   static_cast<double>(accesses));
}

double
speedup(double ipc, double baseline_ipc)
{
    return safeDiv(ipc, baseline_ipc);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto v : values) {
        if (v <= 0.0)
            return 0.0;
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace rlr::stats
