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
Rng::uniformReject(std::uint64_t bound, __uint128_t m)
{
    auto low = static_cast<std::uint64_t>(m);
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
        m = static_cast<__uint128_t>(next()) * bound;
        low = static_cast<std::uint64_t>(m);
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::range(std::uint64_t lo, std::uint64_t hi)
{
    AURORA_ASSERT(lo <= hi, "range() requires lo <= hi");
    return lo + uniform(hi - lo + 1);
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

Rng::ZipfShape
Rng::zipfShape(std::uint64_t n, double s)
{
    AURORA_ASSERT(n > 0, "zipf() needs n > 0");
    ZipfShape shape{n, s};
    const double n1 = static_cast<double>(n) + 1.0;
    if (s == 1.0) {
        shape.t = std::log(n1);
    } else {
        shape.t = std::pow(n1, 1.0 - s);
        shape.inv = 1.0 / (1.0 - s);
    }
    return shape;
}

std::uint64_t
Rng::zipf(const ZipfShape &shape)
{
    const std::uint64_t n = shape.n;
    // Inverse-CDF approximation via the continuous bounding integral;
    // accurate enough for workload skew and O(1) per sample.
    if (shape.s <= 0.0)
        return uniform(n);
    const double u = uniformReal();
    const double value =
        shape.s == 1.0
            ? std::exp(u * shape.t)
            : std::pow(u * (shape.t - 1.0) + 1.0, shape.inv);
    auto idx = static_cast<std::uint64_t>(value);
    if (idx >= 1)
        idx -= 1;
    return idx < n ? idx : n - 1;
}

} // namespace aurora
