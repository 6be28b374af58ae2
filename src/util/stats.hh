/**
 * @file
 * Small statistics toolkit used throughout the simulator.
 *
 * Accumulator collects a running count/mean/min/max/variance without
 * storing samples (Welford). Ratio tracks hit/total style rates.
 * Histogram buckets integer samples for distribution reporting.
 */

#ifndef AURORA_UTIL_STATS_HH
#define AURORA_UTIL_STATS_HH

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "types.hh"

namespace aurora
{

/** Streaming scalar accumulator (Welford's online algorithm). */
class Accumulator
{
  public:
    /** Record one sample. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        if (x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
        sum_ += x;
    }

    /** Number of samples recorded so far. */
    Count count() const { return n_; }
    /** Sum of all samples (0 when empty). */
    double sum() const { return sum_; }
    /** Arithmetic mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Smallest sample (+inf when empty). */
    double min() const { return min_; }
    /** Largest sample (-inf when empty). */
    double max() const { return max_; }
    /** Population variance (0 with fewer than two samples). */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
    }
    /** Population standard deviation. */
    double stddev() const;

    /** Forget all samples. */
    void reset() { *this = Accumulator{}; }

  private:
    Count n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Hit/total rate counter (e.g. cache hit rates). */
class Ratio
{
  public:
    /** Record one trial; hit selects the numerator. */
    void
    record(bool hit)
    {
        ++total_;
        if (hit)
            ++hits_;
    }

    /** Record multiple hits/misses at once. */
    void
    recordMany(Count hits, Count total)
    {
        hits_ += hits;
        total_ += total;
    }

    Count hits() const { return hits_; }
    Count misses() const { return total_ - hits_; }
    Count total() const { return total_; }

    /** Hit fraction in [0,1]; 0 when no trials recorded. */
    double
    rate() const
    {
        return total_ ? static_cast<double>(hits_) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    /** Hit rate as a percentage, matching the paper's tables. */
    double percent() const { return rate() * 100.0; }

    void reset() { *this = Ratio{}; }

  private:
    Count hits_ = 0;
    Count total_ = 0;
};

/** Fixed-bucket histogram over non-negative integer samples. */
class Histogram
{
  public:
    /**
     * @param num_buckets number of unit-width buckets; samples at or
     *        beyond the last bucket accumulate in the overflow bucket.
     */
    explicit Histogram(std::size_t num_buckets)
        : buckets_(num_buckets, 0)
    {}

    /** Record one sample. */
    void add(std::uint64_t x) { add(x, 1); }

    /** Record @p times copies of sample @p x (0 is a no-op). */
    void
    add(std::uint64_t x, Count times)
    {
        if (times == 0)
            return;
        n_ += times;
        sum_ += x * times;
        if (x > max_)
            max_ = x;
        if (x < buckets_.size())
            buckets_[static_cast<std::size_t>(x)] += times;
        else
            overflow_ += times;
    }

    Count count() const { return n_; }
    Count overflow() const { return overflow_; }
    /** Sum of all recorded samples. */
    std::uint64_t sum() const { return sum_; }
    /** Largest recorded sample (0 when empty). */
    std::uint64_t maxSample() const { return max_; }
    /** Mean of all recorded samples. */
    double
    mean() const
    {
        return n_ ? static_cast<double>(sum_) / static_cast<double>(n_)
                  : 0.0;
    }
    /**
     * Smallest sample value v such that at least ceil(p * count)
     * samples are <= v (the inverse empirical CDF). Samples that
     * landed in the overflow bucket report maxSample(). 0 when empty;
     * @p p is clamped to [0, 1].
     */
    std::uint64_t percentile(double p) const;
    /** Occupancy of bucket i. */
    Count bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }

  private:
    std::vector<Count> buckets_;
    Count overflow_ = 0;
    Count n_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/** Monotonic wall-clock stopwatch (per-job and sweep timing). */
class WallTimer
{
  public:
    /** Construction starts the clock. */
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Restart the clock. */
    void reset() { start_ = std::chrono::steady_clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Format a double with fixed decimals (helper for reports). */
std::string formatFixed(double value, int decimals);

} // namespace aurora

#endif // AURORA_UTIL_STATS_HH
