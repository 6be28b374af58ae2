/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Every experiment in the study must be bit-reproducible, so all
 * randomness flows through an explicitly seeded Rng instance; no global
 * generator state exists. The core generator is xoshiro256** which is
 * fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef AURORA_UTIL_RNG_HH
#define AURORA_UTIL_RNG_HH

#include <cstdint>
#include <initializer_list>
#include <span>

namespace aurora
{

/**
 * Seedable xoshiro256** generator with distribution helpers used by the
 * synthetic trace generators.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed expanded via splitmix64. */
    explicit Rng(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire's method; bound > 0. */
    std::uint64_t uniform(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * Geometric number of trials until first success (>= 1) with
     * success probability p; the mean is 1/p. Used for run lengths.
     */
    std::uint64_t geometric(double p);

    /**
     * Sample an index from a discrete distribution given by
     * non-negative weights. At least one weight must be positive.
     */
    std::size_t weighted(std::span<const double> weights);

    /** weighted() over a braced list, with no heap allocation. */
    std::size_t
    weighted(std::initializer_list<double> weights)
    {
        return weighted(std::span(weights.begin(), weights.size()));
    }

    /**
     * Approximate Zipf sample in [0, n) with exponent s, used for
     * skewed data reuse patterns (hot vs. cold addresses).
     */
    std::uint64_t zipf(std::uint64_t n, double s);

  private:
    std::uint64_t s_[4];
};

} // namespace aurora

#endif // AURORA_UTIL_RNG_HH
