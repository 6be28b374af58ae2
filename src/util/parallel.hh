/**
 * @file
 * Minimal work-stealing parallel-for over an index range.
 *
 * Simulation jobs are embarrassingly parallel (each Processor owns
 * its entire machine state and workload generator), so the only
 * machinery needed is a fixed pool of std::thread workers pulling
 * indices from a shared atomic counter. The body writes results by
 * index, which makes output order independent of completion order —
 * the property the sweep determinism tests pin down.
 */

#ifndef AURORA_UTIL_PARALLEL_HH
#define AURORA_UTIL_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace aurora
{

/**
 * Worker-thread count for parallel sections: the AURORA_JOBS
 * environment variable when set and valid, otherwise
 * hardware_concurrency(). Always at least 1.
 */
unsigned defaultWorkers();

/**
 * Invoke body(i) for every i in [0, n) across @p workers threads
 * (0 = defaultWorkers(); 1 = serial in the calling thread; never
 * more threads than items).
 *
 * Exception guarantee (fail-fast, first-exception-wins): the first
 * exception thrown by any invocation is captured, no further indices
 * are scheduled, invocations already in flight run to completion (and
 * may also throw), all workers are joined, and the captured exception
 * is rethrown in the calling thread — the pool cannot deadlock on a
 * throwing body. When more than one invocation failed, a warning
 * reporting the failure count is emitted before the rethrow so the
 * single rethrown error is not silently lossy. In the serial path
 * (one worker) the first exception propagates immediately and later
 * indices never run.
 *
 * Callers that must survive individual failures (per-job sweep
 * isolation) should catch inside the body instead — see
 * harness::SweepRunner::runOutcomes().
 */
void parallelFor(std::size_t n, unsigned workers,
                 const std::function<void(std::size_t)> &body);

} // namespace aurora

#endif // AURORA_UTIL_PARALLEL_HH
