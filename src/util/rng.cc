#include "rng.hh"

#include <cmath>

#include "logging.hh"

namespace aurora
{

namespace
{

/** splitmix64 step, used only for seed expansion. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    for (auto &word : s_)
        word = splitmix64(seed);
    // A pathological all-zero state cannot occur: splitmix64 of any
    // sequence yields at least one non-zero word with overwhelming
    // probability, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::uniform(std::uint64_t bound)
{
    AURORA_ASSERT(bound > 0, "uniform() bound must be positive");
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::range(std::uint64_t lo, std::uint64_t hi)
{
    AURORA_ASSERT(lo <= hi, "range() requires lo <= hi");
    return lo + uniform(hi - lo + 1);
}

double
Rng::uniformReal()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniformReal() < p;
}

std::uint64_t
Rng::geometric(double p)
{
    AURORA_ASSERT(p > 0.0 && p <= 1.0, "geometric() needs 0 < p <= 1");
    if (p >= 1.0)
        return 1;
    const double u = uniformReal();
    const double trials = std::floor(std::log1p(-u) / std::log1p(-p));
    return static_cast<std::uint64_t>(trials) + 1;
}

std::size_t
Rng::weighted(std::span<const double> weights)
{
    double total = 0.0;
    for (double w : weights) {
        AURORA_ASSERT(w >= 0.0, "weighted() weights must be >= 0");
        total += w;
    }
    AURORA_ASSERT(total > 0.0, "weighted() needs a positive total weight");
    double pick = uniformReal() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick < 0.0)
            return i;
    }
    return weights.size() - 1;
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    AURORA_ASSERT(n > 0, "zipf() needs n > 0");
    // Inverse-CDF approximation via the continuous bounding integral;
    // accurate enough for workload skew and O(1) per sample.
    if (s <= 0.0)
        return uniform(n);
    const double u = uniformReal();
    double value;
    if (s == 1.0) {
        value = std::exp(u * std::log(static_cast<double>(n) + 1.0));
    } else {
        const double t =
            std::pow(static_cast<double>(n) + 1.0, 1.0 - s);
        value = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s));
    }
    auto idx = static_cast<std::uint64_t>(value);
    if (idx >= 1)
        idx -= 1;
    return idx < n ? idx : n - 1;
}

} // namespace aurora
