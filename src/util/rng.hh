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
        // A power of two divides 2^64: the rejection threshold
        // below is 0 and r % bound is a mask, so this is the same
        // draw without the two divisions.
        if ((bound & (bound - 1)) == 0)
            return next() & (bound - 1);
        // Rejection sampling to avoid modulo bias: draws below
        // 2^64 % bound are rejected. That threshold is below
        // bound, so a draw at or above bound is accepted without
        // computing it, and most draws cost one division, not two.
        uint64_t r = next();
        if (r < bound) {
            const uint64_t threshold = -bound % bound;
            while (r < threshold)
                r = next();
        }
        return r % bound;
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Number of distinct nextBits53() values: 2^53. */
    static constexpr uint64_t kDraws = 1ULL << 53;

    /** @return the 53 random bits nextDouble() scales into [0, 1). */
    uint64_t nextBits53() { return next() >> 11; }

    /** @return uniform double in [0, 1): nextBits53() * 2^-53. */
    double
    nextDouble()
    {
        return static_cast<double>(nextBits53()) * 0x1.0p-53;
    }

    /**
     * Integer form of `nextDouble() < p`. For a draw x =
     * nextBits53(), x * 2^-53 < p exactly when x < drawsBelow(p):
     * both sides scale by 2^53 without rounding, and x is an
     * integer, so the bound is ceil(p * 2^53), clamped to
     * [0, kDraws]. NaN gives 0, as `u < NaN` is always false.
     */
    static constexpr uint64_t
    drawsBelow(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return kDraws;
        const double scaled = p * 0x1.0p53;
        const auto whole = static_cast<uint64_t>(scaled); // < 2^53
        return whole + (static_cast<double>(whole) < scaled ? 1 : 0);
    }

    /**
     * Integer form of `nextDouble() > c`: x * 2^-53 > c exactly
     * when x >= firstDrawAbove(c), which is floor(c * 2^53) + 1,
     * clamped to [0, kDraws]. NaN gives kDraws, as `u > NaN` is
     * always false.
     */
    static constexpr uint64_t
    firstDrawAbove(double c)
    {
        if (!(c < 1.0))
            return kDraws;
        if (c < 0.0)
            return 0;
        return static_cast<uint64_t>(c * 0x1.0p53) + 1;
    }

    /**
     * A probability converted once for chance(Odds): the same
     * decisions and the same draws as chance(p), with an integer
     * compare in place of a double conversion per call.
     */
    class Odds
    {
      public:
        constexpr explicit Odds(double p = 0.0)
            : below_(p <= 0.0   ? kNever
                     : p >= 1.0 ? kAlways
                                : drawsBelow(p))
        {
        }

      private:
        friend class Rng;
        /** chance(p) returns false / true without drawing. */
        static constexpr uint64_t kNever = ~0ULL - 1;
        static constexpr uint64_t kAlways = ~0ULL;
        /** drawsBelow(p), or kNever / kAlways. */
        uint64_t below_;
    };

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

    /** @return chance(p) for the p @p odds was built from. */
    bool
    chance(Odds odds)
    {
        if (odds.below_ > kDraws)
            return odds.below_ == Odds::kAlways;
        return nextBits53() < odds.below_;
    }

    /** @return geometric sample: number of failures before success. */
    uint64_t nextGeometric(double p);

    /**
     * Fisher-Yates shuffle of a vector: for i = size() down to 2,
     * swap v[i - 1] with v[nextBounded(i)].
     */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        permute(v, 1);
    }

    /**
     * Sattolo's algorithm: a uniformly random single cycle, i.e.
     * for k = size() - 1 down to 1, swap v[k] with
     * v[nextBounded(k)]. Applied to 0..n-1, following v[i] from
     * any i visits every index before returning.
     */
    template <typename T>
    void
    cyclicShuffle(std::vector<T> &v)
    {
        permute(v, 0);
    }

    /** Fork a statistically independent child generator. */
    Rng fork();

  private:
    /**
     * How many swaps ahead permute() draws a partner and
     * prefetches its entry: a swap into a vector larger than the
     * host's caches otherwise waits on a memory access.
     */
    static constexpr size_t kAhead = 32;

    /**
     * The loop shuffle() and cyclicShuffle() share: for k =
     * size() - 1 down to 1, swap v[k] with v[nextBounded(k +
     * extra)]. Partners are drawn kAhead steps early, in the same
     * order; they depend only on this generator, so the swaps and
     * the final state are those of the plain loop.
     */
    template <typename T>
    void
    permute(std::vector<T> &v, uint64_t extra)
    {
        const size_t n = v.size();
        if (n < 2)
            return;
        std::array<size_t, kAhead> partner{};
        const auto draw = [&](size_t k) {
            const auto j = static_cast<size_t>(nextBounded(k + extra));
            partner[k % kAhead] = j;
            __builtin_prefetch(&v[j], 1);
        };
        for (size_t k = n - 1; k > 0 && k + kAhead >= n; --k)
            draw(k);
        for (size_t k = n - 1; k > 0; --k) {
            const size_t j = partner[k % kAhead];
            if (k > kAhead)
                draw(k - kAhead);
            std::swap(v[k], v[j]);
        }
    }

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
