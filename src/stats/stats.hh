/**
 * @file
 * Lightweight statistics collection for simulator components.
 *
 * Components own a StatSet; counters registered with it can be
 * dumped by name, and derived metrics (hit rate, MPKI, IPC,
 * speedup, geometric means) are computed by free functions so the
 * same formulas are used by every experiment harness.
 */

#ifndef RLR_STATS_STATS_HH
#define RLR_STATS_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rlr::stats
{

/**
 * A named group of counters, registered by string name.
 *
 * Rule: no per-instruction or per-access code looks a counter up by
 * name. Hot paths hold a `uint64_t *` to the counter instead: bound
 * once at construction where the counter is always exported
 * (cache::Cache), or on first touch through LazyCounter where the
 * export must keep listing only the counters a run touched (the
 * core and DRAM). The map is only searched at setup, first touch
 * and dump time.
 */
class StatSet
{
  public:
    /** @param name component name used as a dump prefix */
    explicit StatSet(std::string name = "");

    /**
     * Register (or fetch) a counter. The returned reference is
     * stable for the life of the StatSet.
     */
    uint64_t &counter(const std::string &name);

    /** @return counter value; 0 when never registered. */
    uint64_t value(const std::string &name) const;

    /** Zero every registered counter. */
    void reset();

    /** Accumulate all counters of @p other into this set. */
    void merge(const StatSet &other);

    /** @return "prefix.counter value" lines, sorted by name. */
    std::string dump() const;

    const std::string &name() const { return name_; }

    /** All (name, value) pairs, sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> items() const;

  private:
    std::string name_;
    // std::map keeps iteration (and dumps) deterministically sorted,
    // and never invalidates references on insert.
    std::map<std::string, uint64_t> counters_;
};

/**
 * One StatSet counter, registered on first touch. Until the first
 * get() the counter does not exist in the set, so a run that never
 * touches it exports no key for it, exactly as a direct
 * StatSet::counter() call at the same point would behave ("+= 0"
 * registers it too). After that, get() is one predicted branch and
 * a pointer dereference. Not copyable: the slot points into the
 * owning component's StatSet, so declare it after that StatSet.
 */
class LazyCounter
{
  public:
    /** @param name must outlive the counter (a string literal) */
    LazyCounter(StatSet &set, const char *name)
        : set_(set), name_(name)
    {
    }

    LazyCounter(const LazyCounter &) = delete;
    LazyCounter &operator=(const LazyCounter &) = delete;

    /** @return the counter, registering it on first use. */
    uint64_t &
    get()
    {
        if (slot_ == nullptr) [[unlikely]]
            slot_ = &set_.counter(name_);
        return *slot_;
    }

    /** @return the counter's value; 0 when never touched. */
    uint64_t value() const { return slot_ == nullptr ? 0 : *slot_; }

  private:
    StatSet &set_;
    const char *name_;
    uint64_t *slot_ = nullptr;
};

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

/**
 * Internal-consistency check over a cache StatSet's per-type access
 * counters: for each type T in {LD, RFO, PF, WB},
 * T_hit + T_miss == T_access must hold.
 * @return "" when consistent, else a description of the first
 *         violated identity
 */
std::string accessConsistencyError(const StatSet &set);

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
