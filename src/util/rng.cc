#include "util/rng.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rlr::util
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    ensure(lo <= hi, "Rng::nextRange: inverted range");
    return lo + static_cast<int64_t>(
        nextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

uint64_t
Rng::nextGeometric(double p)
{
    ensure(p > 0.0 && p <= 1.0, "Rng::nextGeometric: bad p");
    if (p >= 1.0)
        return 0;
    const double u = 1.0 - nextDouble(); // in (0, 1]
    return static_cast<uint64_t>(std::log(u) / std::log1p(-p));
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

ZipfSampler::ZipfSampler(uint64_t n, double alpha)
{
    ensure(n > 0, "ZipfSampler: empty population");
    cdf_.resize(n);
    double acc = 0.0;
    if (alpha == 1.0) {
        // Exact, not an approximation: x^1 is x itself, which is
        // representable, and pow() is accurate to well under one
        // ulp, so pow(x, 1.0) returns x bit for bit. This loop
        // therefore sums the same doubles in the same order as the
        // general one below, without a pow() call per rank
        // (test_rng checks the two CDFs bitwise). Several HotCold
        // kernels use alpha 1.0, and every System construction
        // rebuilds their CDFs.
        for (uint64_t i = 0; i < n; ++i) {
            acc += 1.0 / static_cast<double>(i + 1);
            cdf_[i] = acc;
        }
    } else {
        for (uint64_t i = 0; i < n; ++i) {
            acc += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
            cdf_[i] = acc;
        }
    }
    for (auto &c : cdf_)
        c /= acc;
}

uint64_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint64_t>(it - cdf_.begin());
}

} // namespace rlr::util
