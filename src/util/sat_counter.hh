/**
 * @file
 * Saturating counters — the workhorse state element of replacement
 * policies, branch predictors, and confidence estimators.
 */

#ifndef RLR_UTIL_SAT_COUNTER_HH
#define RLR_UTIL_SAT_COUNTER_HH

#include <cstdint>

#include "util/bits.hh"
#include "util/logging.hh"

namespace rlr::util
{

/**
 * An n-bit unsigned saturating counter. The width is a runtime
 * parameter because several experiments sweep counter widths
 * (e.g. the RLR age-counter ablation).
 */
class SatCounter
{
  public:
    /** @param nbits counter width in bits (1..63)
     *  @param initial initial value (clamped to the maximum) */
    explicit SatCounter(unsigned nbits = 2, uint64_t initial = 0)
        : max_(mask(nbits)), value_(initial > max_ ? max_ : initial)
    {
        ensure(nbits >= 1 && nbits <= 63, "SatCounter: bad width");
    }

    /** Increment, saturating at the maximum. */
    SatCounter &
    operator++()
    {
        if (value_ < max_)
            ++value_;
        return *this;
    }

    /** Decrement, saturating at zero. */
    SatCounter &
    operator--()
    {
        if (value_ > 0)
            --value_;
        return *this;
    }

    /** Add @p delta with saturation. */
    void
    add(uint64_t delta)
    {
        value_ = (max_ - value_ < delta) ? max_ : value_ + delta;
    }

    /** Set to an explicit value (clamped). */
    void set(uint64_t v) { value_ = v > max_ ? max_ : v; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

    uint64_t value() const { return value_; }
    uint64_t maxValue() const { return max_; }
    bool saturated() const { return value_ == max_; }

    /** @return value normalized to [0, 1]. */
    double
    fraction() const
    {
        return static_cast<double>(value_) / static_cast<double>(max_);
    }

    operator uint64_t() const { return value_; }

  private:
    uint64_t max_;
    uint64_t value_;
};

/** Saturating increment of a one-byte counter up to @p max. */
inline void
satIncrement(uint8_t &ctr, uint8_t max)
{
    if (ctr < max)
        ++ctr;
}

/** Saturating decrement of a one-byte counter down to zero. */
inline void
satDecrement(uint8_t &ctr)
{
    if (ctr > 0)
        --ctr;
}

/**
 * An n-bit signed saturating counter in [-2^(n-1), 2^(n-1)-1],
 * as used by perceptron-style predictors and set-dueling monitors.
 */
class SignedSatCounter
{
  public:
    explicit SignedSatCounter(unsigned nbits = 10, int64_t initial = 0)
        : min_(-(1LL << (nbits - 1))), max_((1LL << (nbits - 1)) - 1),
          value_(initial)
    {
        ensure(nbits >= 2 && nbits <= 63,
               "SignedSatCounter: bad width");
        if (value_ < min_)
            value_ = min_;
        if (value_ > max_)
            value_ = max_;
    }

    SignedSatCounter &
    operator++()
    {
        if (value_ < max_)
            ++value_;
        return *this;
    }

    SignedSatCounter &
    operator--()
    {
        if (value_ > min_)
            --value_;
        return *this;
    }

    int64_t value() const { return value_; }
    int64_t minValue() const { return min_; }
    int64_t maxValue() const { return max_; }

    /** @return true when the counter is non-negative. */
    bool taken() const { return value_ >= 0; }

  private:
    int64_t min_;
    int64_t max_;
    int64_t value_;
};

} // namespace rlr::util

#endif // RLR_UTIL_SAT_COUNTER_HH
