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

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "logging.hh"

namespace aurora
{

/**
 * Seedable xoshiro256** generator with distribution helpers used by the
 * synthetic trace generators; the per-instruction draws are inline.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed expanded via splitmix64. */
    explicit Rng(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's method; bound > 0. */
    std::uint64_t
    uniform(std::uint64_t bound)
    {
        AURORA_ASSERT(bound > 0, "uniform() bound must be positive");
        // Lemire's multiply-shift method, rejection out of line.
        const __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        if (static_cast<std::uint64_t>(m) < bound)
            return uniformReject(bound, m);
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniformReal()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

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
     * What zipf() over [0, n) with exponent s computes from (n, s)
     * alone, so a caller drawing often from one domain does it once.
     */
    struct ZipfShape
    {
        std::uint64_t n = 1;
        double s = 0.0;
        double t = 0.0;   ///< pow(n + 1, 1 - s); log(n + 1) when s == 1
        double inv = 0.0; ///< 1 / (1 - s)
    };

    /** Precompute zipf() over [0, n) with exponent s; n > 0. */
    static ZipfShape zipfShape(std::uint64_t n, double s);

    /**
     * Approximate Zipf sample in [0, n) with exponent s, used for
     * skewed data reuse patterns (hot vs. cold addresses).
     */
    std::uint64_t zipf(const ZipfShape &shape);

    /** zipf() over a shape computed for this one draw. */
    std::uint64_t
    zipf(std::uint64_t n, double s)
    {
        return zipf(zipfShape(n, s));
    }

  private:
    /** uniform()'s rejection loop, entered when @p m's low half < bound. */
    std::uint64_t uniformReject(std::uint64_t bound, __uint128_t m);

    std::uint64_t s_[4];
};

} // namespace aurora

#endif // AURORA_UTIL_RNG_HH
