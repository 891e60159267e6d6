/**
 * @file
 * Tests for the shared experiment-harness helpers in
 * bench/common.hh.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.hh"

using rlr::bench::withLruBaseline;

TEST(WithLruBaseline, PrependsLruWhenAbsent)
{
    const std::vector<std::string> want = {"LRU", "DRRIP", "RLR"};
    EXPECT_EQ(withLruBaseline({"DRRIP", "RLR"}), want);
    EXPECT_EQ(withLruBaseline({}), std::vector<std::string>{"LRU"});
}

TEST(WithLruBaseline, KeepsListThatAlreadyHasLru)
{
    const std::vector<std::string> leading = {"LRU", "RLR"};
    EXPECT_EQ(withLruBaseline(leading), leading);
    const std::vector<std::string> trailing = {"RLR", "LRU"};
    EXPECT_EQ(withLruBaseline(trailing), trailing);
}
