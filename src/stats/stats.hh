/**
 * @file
 * Derived-metric formulas shared by every experiment harness.
 *
 * Components keep their counters as plain uint64_t members and
 * export them through stats::Registry (stats/registry.hh); the
 * metrics computed from them (hit rate, MPKI, IPC speedup,
 * geometric means) and a running mean/variance live here, so the
 * same formulas are used everywhere.
 */

#ifndef RLR_STATS_STATS_HH
#define RLR_STATS_STATS_HH

#include <cstdint>
#include <vector>

namespace rlr::stats
{

/** Running mean/variance (Welford) for measurement summaries. */
class RunningStat
{
  public:
    void sample(double v);
    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** @return a/b, or 0 when b == 0. */
double safeDiv(double a, double b);

/** Misses per kilo-instruction. */
double mpki(uint64_t misses, uint64_t instructions);

/** Hit rate in [0, 1]. */
double hitRate(uint64_t hits, uint64_t accesses);

/** IPC speedup of @p ipc over @p baseline_ipc. */
double speedup(double ipc, double baseline_ipc);

/** Geometric mean of positive values; 0 for empty input. */
double geomean(const std::vector<double> &values);

} // namespace rlr::stats

#endif // RLR_STATS_STATS_HH
