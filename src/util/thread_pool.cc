#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rlr::util
{

void
parallelFor(size_t n, size_t nthreads,
            const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (nthreads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    // Messages of EVERY captured exception, in capture order:
    // iterations already running when the first failure lands may
    // fail too, and silently dropping them hides concurrent bugs.
    std::vector<std::string> error_messages;
    std::mutex error_mutex;
    const size_t workers = std::min(n, nthreads);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&] {
            while (!failed.load(std::memory_order_acquire)) {
                const size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                try {
                    fn(i);
                } catch (...) {
                    std::string what = "unknown exception";
                    try {
                        throw;
                    } catch (const std::exception &e) {
                        what = e.what();
                    } catch (...) {
                    }
                    std::scoped_lock lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                    error_messages.push_back(std::move(what));
                    failed.store(true, std::memory_order_release);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    if (error_messages.size() == 1)
        std::rethrow_exception(first_error);
    if (error_messages.size() > 1) {
        std::string joined;
        for (size_t i = 0; i < error_messages.size(); ++i) {
            if (i)
                joined += "; ";
            joined += "[" + std::to_string(i) + "] " +
                      error_messages[i];
        }
        throw std::runtime_error(
            std::to_string(error_messages.size()) +
            " worker tasks failed: " + joined);
    }
}

} // namespace rlr::util
