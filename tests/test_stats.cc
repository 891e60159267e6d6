/** @file Unit tests for stats/stats.hh. */

#include <gtest/gtest.h>

#include "stats/stats.hh"

using namespace rlr::stats;

TEST(RunningStat, Moments)
{
    RunningStat r;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        r.sample(v);
    EXPECT_EQ(r.count(), 8u);
    EXPECT_DOUBLE_EQ(r.mean(), 5.0);
    EXPECT_NEAR(r.variance(), 4.571, 0.01);
    EXPECT_DOUBLE_EQ(r.min(), 2.0);
    EXPECT_DOUBLE_EQ(r.max(), 9.0);
}

TEST(Derived, SafeDiv)
{
    EXPECT_DOUBLE_EQ(safeDiv(4, 2), 2.0);
    EXPECT_DOUBLE_EQ(safeDiv(4, 0), 0.0);
}

TEST(Derived, Mpki)
{
    EXPECT_DOUBLE_EQ(mpki(50, 10000), 5.0);
    EXPECT_DOUBLE_EQ(mpki(50, 0), 0.0);
}

TEST(Derived, HitRate)
{
    EXPECT_DOUBLE_EQ(hitRate(3, 4), 0.75);
    EXPECT_DOUBLE_EQ(hitRate(0, 0), 0.0);
}

TEST(Derived, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
    // Non-positive input collapses to 0 (defined behaviour).
    EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);
}

TEST(Derived, Speedup)
{
    EXPECT_DOUBLE_EQ(speedup(1.2, 1.0), 1.2);
    EXPECT_DOUBLE_EQ(speedup(1.0, 0.0), 0.0);
}
