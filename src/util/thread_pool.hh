/**
 * @file
 * util::parallelFor, the one primitive behind every parallel sweep:
 * sim::SweepRunner runs its worker loops on it, and the victim-
 * analysis figures fan their per-workload jobs out with it. Results
 * are deterministic because each iteration owns its own RNG and
 * state.
 */

#ifndef RLR_UTIL_THREAD_POOL_HH
#define RLR_UTIL_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace rlr::util
{

/**
 * Run fn(i) for i in [0, n) on min(n, nthreads) threads and wait
 * for completion; nthreads <= 1 runs the loop on the caller.
 *
 * If exactly one fn(i) throws, that exception is rethrown here
 * after all workers have joined. When several iterations fail
 * concurrently (iterations already started finish even after a
 * failure is recorded; no new iterations are claimed), every
 * captured message is aggregated into one std::runtime_error ("N
 * worker tasks failed: [0] ...; [1] ..."), so no concurrent
 * failure is silently dropped. Callers that need every iteration
 * to run despite failures must catch inside fn (see
 * sim::SweepRunner).
 */
void parallelFor(size_t n, size_t nthreads,
                 const std::function<void(size_t)> &fn);

} // namespace rlr::util

#endif // RLR_UTIL_THREAD_POOL_HH
