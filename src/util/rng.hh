/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (synthetic workloads,
 * epsilon-greedy exploration, BRRIP throttling, workload mixes) draws
 * from seeded Rng instances so that every experiment is reproducible
 * from its printed seed.
 */

#ifndef RLR_UTIL_RNG_HH
#define RLR_UTIL_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace rlr::util
{

/**
 * xoshiro256** generator (Blackman/Vigna) seeded via splitmix64.
 * Small, fast, and good enough statistical quality for simulation.
 * The per-draw members are inline: the synthetic generators call
 * them several times per simulated instruction.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return uniform integer in [0, bound) ; bound must be > 0. */
    uint64_t
    nextBounded(uint64_t bound)
    {
        ensure(bound > 0, "Rng::nextBounded: zero bound");
        // Rejection sampling to avoid modulo bias.
        const uint64_t threshold = -bound % bound;
        for (;;) {
            const uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** @return uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** @return geometric sample: number of failures before success. */
    uint64_t nextGeometric(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[nextBounded(i)]);
    }

    /** Fork a statistically independent child generator. */
    Rng fork();

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> state_;
};

/**
 * Zipf(alpha) sampler over ranks [0, n). Precomputes the CDF once;
 * sampling is O(log n). Models hot/cold skew in cache access streams.
 */
class ZipfSampler
{
  public:
    /** @param n number of items; @param alpha skew (>0, 1.0 typical) */
    ZipfSampler(uint64_t n, double alpha);

    /** Draw a rank in [0, n); rank 0 is the hottest. */
    uint64_t sample(Rng &rng) const;

    uint64_t size() const { return cdf_.size(); }

    /** The normalized CDF: cdf()[i] = P(rank <= i). */
    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
};

} // namespace rlr::util

#endif // RLR_UTIL_RNG_HH
