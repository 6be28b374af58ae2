#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "env.hh"
#include "logging.hh"

namespace aurora
{

unsigned
defaultWorkers()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        envCount("AURORA_JOBS", hw, /*min=*/1));
}

void
parallelFor(std::size_t n, unsigned workers,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (workers == 0)
        workers = defaultWorkers();
    workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, n));

    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failures{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    const auto drain = [&]() {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                failures.fetch_add(1, std::memory_order_relaxed);
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(drain);
    drain();
    for (std::thread &t : pool)
        t.join();

    if (error) {
        const std::size_t count =
            failures.load(std::memory_order_relaxed);
        if (count > 1)
            warn(detail::concat("parallelFor: ", count, " of ", n,
                                " invocations failed; rethrowing the "
                                "first error only"));
        std::rethrow_exception(error);
    }
}

} // namespace aurora
