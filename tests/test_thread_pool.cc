/** @file Unit tests for util/thread_pool.hh. */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>
#include <stdexcept>

#include "util/thread_pool.hh"

using rlr::util::parallelFor;

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    std::vector<int> hits(1000, 0);
    parallelFor(hits.size(), 8, [&](size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
    for (const auto h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForSingleThreadFallback)
{
    std::vector<int> hits(10, 0);
    parallelFor(hits.size(), 1, [&](size_t i) { hits[i] += 1; });
    for (const auto h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEmpty)
{
    // Must not hang or crash.
    parallelFor(0, 4, [](size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForRethrowsFirstException)
{
    // A throwing task used to escape the worker thread and call
    // std::terminate; it must surface on join instead.
    std::atomic<int> ran{0};
    try {
        parallelFor(64, 4, [&](size_t i) {
            if (i == 5)
                throw std::runtime_error("cell 5 exploded");
            ++ran;
        });
        FAIL() << "expected the task exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 5 exploded");
    }
    // Iterations started before the failure still completed; the
    // pool may skip unstarted ones but must never run index 5's
    // body past the throw.
    EXPECT_GE(ran.load(), 1);
    EXPECT_LE(ran.load(), 63);
}

TEST(ThreadPool, ParallelForSingleThreadPropagates)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(10, 1,
                             [&](size_t i) {
                                 if (i == 3)
                                     throw std::logic_error("boom");
                                 ++ran;
                             }),
                 std::logic_error);
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, ParallelForAggregatesConcurrentFailures)
{
    // Two workers throw simultaneously: neither message may be
    // dropped. Both tasks rendezvous before throwing, so both are
    // in flight when the first failure is recorded.
    std::atomic<int> arrived{0};
    try {
        parallelFor(2, 2, [&](size_t i) {
            arrived.fetch_add(1);
            while (arrived.load() < 2) {
            }
            throw std::runtime_error("worker " +
                                     std::to_string(i) +
                                     " exploded");
        });
        FAIL() << "expected an aggregated exception";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 worker tasks failed"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("worker 0 exploded"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("worker 1 exploded"),
                  std::string::npos)
            << what;
    }
}

TEST(ThreadPool, ParallelForNonStdExceptionPropagates)
{
    EXPECT_THROW(parallelFor(
                     8, 2, [](size_t i) {
                         if (i == 0)
                             throw 42; // not derived from std::exception
                     }),
                 int);
}
