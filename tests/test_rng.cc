/** @file Unit and property tests for util/rng.hh. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hh"

using namespace rlr::util;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// Golden first values of Rng(42), recorded before the per-draw
// members moved inline into rng.hh. Any drift in the generator, in
// the rejection sampling of nextBounded or in the double conversion
// fails here before it reaches a figure digest.
TEST(Rng, GoldenValuesSeed42)
{
    {
        Rng r(42);
        EXPECT_EQ(r.next(), 0x15780b2e0c2ec716ULL);
        EXPECT_EQ(r.next(), 0x6104d9866d113a7eULL);
        EXPECT_EQ(r.next(), 0xae17533239e499a1ULL);
        EXPECT_EQ(r.next(), 0xecb8ad4703b360a1ULL);
    }
    {
        Rng r(42);
        const std::vector<uint64_t> want{26, 30, 3, 47, 16, 0, 0, 35};
        for (const uint64_t w : want)
            EXPECT_EQ(r.nextBounded(62), w);
    }
    {
        Rng r(42);
        const std::vector<uint64_t> want{
            0x3fb5780b2e0c2ec0ULL, 0x3fd84136619b444eULL,
            0x3fe5c2ea66473c93ULL, 0x3fed9715a8e0766cULL};
        for (const uint64_t w : want) {
            const double d = r.nextDouble();
            uint64_t bits = 0;
            std::memcpy(&bits, &d, sizeof(bits));
            EXPECT_EQ(bits, w);
        }
    }
    {
        Rng r(42);
        std::string got;
        for (int i = 0; i < 16; ++i)
            got += r.chance(0.3) ? '1' : '0';
        EXPECT_EQ(got, "1000000000010000");
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

namespace
{

/**
 * Probabilities at and around every edge of chance(): the no-draw
 * ends, NaN, subnormals, the draw grid's own points (k * 2^-53)
 * and the doubles between them, the last double below 1, and the
 * constants the synthetic generator flips.
 */
std::vector<double>
edgeProbabilities()
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> ps = {
        0.0, -0.0, 1.0, -0.5, 1.5, -inf, inf,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        0x1.0p-53, 0x3.0p-54, 0x1.0p-60,
        std::nextafter(1.0, 0.0), std::nextafter(0.5, 0.0), 0.5,
        std::nextafter(0.5, 1.0), 0.25, 0.4, 0.97, 0.02, 0.3,
        1.0 / 3.0, 0.78, 0.35 + 0.15};
    Rng pick(99);
    for (int i = 0; i < 40; ++i)
        ps.push_back(pick.nextDouble());
    return ps;
}

} // namespace

TEST(Rng, OddsDecideAsChanceOnTwinGenerators)
{
    // chance(Odds(p)) must make the same decision from the same
    // draws as chance(p), so that two generators fed the two forms
    // stay in lockstep: same answers, same end state.
    for (const double p : edgeProbabilities()) {
        Rng a(17);
        Rng b(17);
        const Rng::Odds odds(p);
        int trues = 0;
        for (int i = 0; i < 20000; ++i) {
            const bool expect = a.chance(p);
            ASSERT_EQ(b.chance(odds), expect) << p << " at " << i;
            trues += expect;
        }
        EXPECT_EQ(a.next(), b.next()) << p;
        if (p >= 1.0) {
            EXPECT_EQ(trues, 20000);
        } else if (!(p > 0.0)) {
            EXPECT_EQ(trues, 0);
        }
    }
}

TEST(Rng, DrawThresholdsAreExactAtTheirBoundaries)
{
    // x * 2^-53 < p  <=>  x < drawsBelow(p), and
    // x * 2^-53 > c  <=>  x >= firstDrawAbove(c), checked on the
    // draws just around each threshold and on random draws.
    const auto unit = [](uint64_t x) {
        return static_cast<double>(x) * 0x1.0p-53;
    };
    Rng rng(5);
    for (const double p : edgeProbabilities()) {
        const uint64_t below = Rng::drawsBelow(p);
        const uint64_t above = Rng::firstDrawAbove(p);
        ASSERT_LE(below, Rng::kDraws) << p;
        ASSERT_LE(above, Rng::kDraws) << p;
        std::vector<uint64_t> xs = {0, 1, Rng::kDraws - 1};
        for (const uint64_t t : {below, above}) {
            for (uint64_t d = 0; d < 3; ++d) {
                if (t + d >= 1 && t + d - 1 < Rng::kDraws)
                    xs.push_back(t + d - 1);
            }
        }
        for (int i = 0; i < 1000; ++i)
            xs.push_back(rng.nextBits53());
        for (const uint64_t x : xs) {
            ASSERT_EQ(unit(x) < p, x < below) << p << " x=" << x;
            ASSERT_EQ(unit(x) > p, x >= above) << p << " x=" << x;
        }
    }
    // nextDouble() is exactly nextBits53() scaled.
    Rng a(8);
    Rng b(8);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextDouble(), unit(b.nextBits53()));
}

namespace
{

/**
 * nextBounded as plain rejection sampling: the threshold is
 * computed on every call, before the first draw.
 */
uint64_t
boundedReference(Rng &rng, uint64_t bound)
{
    const uint64_t threshold = -bound % bound;
    for (;;) {
        const uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

} // namespace

TEST(Rng, PowerOfTwoBoundsDrawAsRejectionSampling)
{
    // nextBounded's mask path for powers of two gives what the
    // general rejection sampler gives, draw for draw.
    const auto reference = boundedReference;
    for (const uint64_t bound :
         {1ULL, 2ULL, 4ULL, 8ULL, 256ULL, 1ULL << 40, 1ULL << 63, 3ULL,
          62ULL, 1000ULL, (1ULL << 63) + 1}) {
        Rng a(21);
        Rng b(21);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.nextBounded(bound), reference(b, bound)) << bound;
        EXPECT_EQ(a.next(), b.next()) << bound;
    }
}

TEST(Rng, BoundedDecidesAsAlwaysThresholdReference)
{
    // Any shortcut in nextBounded's rejection test must accept and
    // reject exactly the draws the always-threshold sampler does.
    // 2^63 + 1 rejects about half of all draws; 2^64 - 1 rejects
    // only a zero draw.
    for (const uint64_t bound :
         {3ULL, 62ULL, 1000003ULL, (1ULL << 32) + 1, (1ULL << 63) + 1,
          ~0ULL}) {
        Rng a(77);
        Rng b(77);
        for (int i = 0; i < 100000; ++i) {
            ASSERT_EQ(a.nextBounded(bound), boundedReference(b, bound))
                << bound << " draw " << i;
        }
        EXPECT_EQ(a.next(), b.next()) << bound;
    }
}

TEST(Rng, ShuffleMatchesFisherYatesLoop)
{
    // shuffle is the Fisher-Yates loop below, swap for swap, and
    // leaves the generator where the loop leaves it, whatever the
    // order it makes its memory accesses in.
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{31},
                           size_t{32}, size_t{33}, size_t{1000},
                           size_t{1} << 20}) {
        std::vector<uint32_t> got(n);
        for (size_t i = 0; i < n; ++i)
            got[i] = static_cast<uint32_t>(i);
        std::vector<uint32_t> want = got;
        Rng a(1000 + n);
        Rng b(1000 + n);
        a.shuffle(got);
        for (size_t i = n; i > 1; --i)
            std::swap(want[i - 1], want[boundedReference(b, i)]);
        ASSERT_EQ(got, want) << n;
        EXPECT_EQ(a.next(), b.next()) << n;
    }
}

TEST(Rng, CyclicShuffleMatchesSattoloLoop)
{
    // cyclicShuffle is Sattolo's loop, swap for swap, with the
    // same end state, and makes a single cycle.
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{31},
                           size_t{32}, size_t{33}, size_t{1000},
                           size_t{1} << 20}) {
        std::vector<uint32_t> got(n);
        for (size_t i = 0; i < n; ++i)
            got[i] = static_cast<uint32_t>(i);
        std::vector<uint32_t> want = got;
        Rng a(2000 + n);
        Rng b(2000 + n);
        a.cyclicShuffle(got);
        for (size_t k = n; k-- > 1;)
            std::swap(want[k], want[boundedReference(b, k)]);
        ASSERT_EQ(got, want) << n;
        EXPECT_EQ(a.next(), b.next()) << n;
        size_t length = 0;
        uint32_t pos = 0;
        do {
            pos = n == 0 ? 0 : got[pos];
            ++length;
        } while (pos != 0);
        EXPECT_EQ(length, std::max<size_t>(n, 1)) << n;
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(3);
    std::vector<int> v(50);
    for (int i = 0; i < 50; ++i)
        v[i] = i;
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ForkIndependence)
{
    Rng a(9);
    Rng child = a.fork();
    // The fork and the parent should not produce the same stream.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == child.next();
    EXPECT_LT(same, 4);
}

/** Zipf rank-0 frequency grows with alpha (skew property). */
class ZipfAlphaTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfAlphaTest, HeadProbabilityMatchesTheory)
{
    const double alpha = GetParam();
    const uint64_t n = 100;
    ZipfSampler zipf(n, alpha);
    Rng rng(77);
    uint64_t head = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i)
        head += zipf.sample(rng) == 0;

    double denom = 0.0;
    for (uint64_t k = 1; k <= n; ++k)
        denom += 1.0 / std::pow(static_cast<double>(k), alpha);
    const double expected = (1.0 / denom);
    EXPECT_NEAR(static_cast<double>(head) / samples, expected,
                0.02);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2));

TEST(Zipf, SamplesWithinRange)
{
    ZipfSampler zipf(10, 1.0);
    Rng rng(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(zipf.sample(rng), 10u);
}

TEST(Zipf, AlphaOneCdfBitwiseEqualsPowCdf)
{
    // ZipfSampler skips pow() when alpha is 1.0; the CDF must stay
    // the one the pow() loop builds, bit for bit. The exponent goes
    // through a volatile so the compiler cannot fold pow(x, 1.0) to
    // x here and make the comparison vacuous.
    volatile double alpha_in = 1.0;
    const double alpha = alpha_in;
    constexpr uint64_t n = 1u << 20;
    std::vector<double> want(n);
    double acc = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        want[i] = acc;
    }
    for (auto &c : want)
        c /= acc;

    const ZipfSampler zipf(n, 1.0);
    ASSERT_EQ(zipf.cdf().size(), n);
    EXPECT_EQ(std::memcmp(zipf.cdf().data(), want.data(),
                          n * sizeof(double)),
              0);
}

TEST(Rng, GeometricMeanApproximation)
{
    Rng rng(21);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    // E[failures before success] = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.2);
}
