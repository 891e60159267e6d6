/**
 * @file
 * Cooperative cancellation for long-running simulation loops.
 *
 * A CancelToken is a tiny lock-free flag shared between a monitor
 * (watchdog thread, signal handler drain) and a worker running a
 * simulation. Workers poll `cancelled()` at cheap checkpoints —
 * the core run loop checks once every kCancelCheckInterval
 * instructions — and unwind by throwing CancelledError, which the
 * SweepRunner turns into a per-cell error instead of a hung or
 * torn-down sweep. The disabled path (no token attached) costs
 * one predicted branch per checkpoint. test_cancel_token pins the
 * armed path by structure rather than by wall clock: a token
 * cancelled while instruction k is produced is seen after exactly
 * k rounded up to a multiple of kCancelCheckInterval instructions,
 * so the loop polls once per interval and at no other point.
 */

#ifndef RLR_UTIL_CANCEL_TOKEN_HH
#define RLR_UTIL_CANCEL_TOKEN_HH

#include <atomic>
#include <stdexcept>

namespace rlr::util
{

/** How often (in loop iterations) run loops poll their token. */
inline constexpr uint64_t kCancelCheckInterval = 4096;

/** One-shot, thread-safe cancellation flag with a reason. */
class CancelToken
{
  public:
    /** Why the token was cancelled; the first cancel() wins. */
    enum class Reason : int { None = 0, Timeout, Signal, Other };

    /** Request cancellation; later calls keep the first reason. */
    void
    cancel(Reason r = Reason::Other) noexcept
    {
        int expected = 0;
        state_.compare_exchange_strong(expected,
                                       static_cast<int>(r),
                                       std::memory_order_release,
                                       std::memory_order_relaxed);
    }

    /** @return true once cancel() has been called. */
    bool
    cancelled() const noexcept
    {
        return state_.load(std::memory_order_relaxed) != 0;
    }

    Reason
    reason() const noexcept
    {
        return static_cast<Reason>(
            state_.load(std::memory_order_acquire));
    }

    /** Re-arm for the next attempt (retry loops). */
    void
    reset() noexcept
    {
        state_.store(0, std::memory_order_release);
    }

    /** Human name of @p r ("timeout", "signal", ...). */
    static const char *reasonName(Reason r) noexcept;

  private:
    std::atomic<int> state_{0};
};

/**
 * Thrown from a cancellation checkpoint when the attached token
 * has been cancelled; carries the token's reason so callers can
 * distinguish a watchdog timeout from a signal drain.
 */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(CancelToken::Reason reason);

    CancelToken::Reason reason() const noexcept { return reason_; }

  private:
    CancelToken::Reason reason_;
};

} // namespace rlr::util

#endif // RLR_UTIL_CANCEL_TOKEN_HH
