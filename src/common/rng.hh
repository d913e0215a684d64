/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All stochastic behaviour in the simulator flows through Rng so that a
 * given seed reproduces a bit-identical run. The core generator is
 * xoshiro256** (public domain, Blackman & Vigna), which is fast, has a
 * 256-bit state and passes BigCrush.
 */

#ifndef CHAMELEON_COMMON_RNG_HH
#define CHAMELEON_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace chameleon
{

/** Deterministic xoshiro256** generator with uniform helpers. */
class Rng
{
  public:
    /** Seed via SplitMix64 so that small seeds still fill the state. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection method.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

/**
 * Geometric run length with mean @p mean (>= 1). Used for
 * sequential-run spatial locality and inter-reference gaps in address
 * streams. The log of the per-step continuation probability is fixed
 * per distribution, so it is computed once here rather than per draw.
 */
class GeometricDist
{
  public:
    explicit GeometricDist(double mean)
        : degenerate(mean <= 1.0),
          logQ(degenerate ? 0.0 : std::log1p(-(1.0 / mean)))
    {
    }

    /**
     * One draw, always >= 1. A mean of at most 1 returns 1 without
     * consuming @p rng.
     */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (degenerate)
            return 1;
        double u = rng.uniform();
        // Guard against log(0).
        if (u >= 1.0)
            u = 0.999999999999;
        return static_cast<std::uint64_t>(
                   std::floor(std::log1p(-u) / logQ)) + 1;
    }

  private:
    bool degenerate;
    double logQ;
};

/**
 * Bounded Zipf-like rank sample in [0, n) with exponent @p s,
 * computed by inverse-CDF approximation of the continuous analogue.
 * Used to skew hot-page popularity inside a working set. The terms
 * that depend only on @p n and @p s are computed once here rather than
 * per draw.
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double s) : count(n), harmonic(s == 1.0)
    {
        if (n <= 1)
            return;
        if (harmonic) {
            logN = std::log(static_cast<double>(n));
        } else {
            const double e = 1.0 - s;
            nmMinus1 = std::pow(static_cast<double>(n), e) - 1.0;
            invE = 1.0 / e;
        }
    }

    /** One draw; @p n <= 1 returns 0 without consuming @p rng. */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (count <= 1)
            return 0;
        const double u = rng.uniform();
        const auto r =
            harmonic ? static_cast<std::uint64_t>(std::exp(u * logN)) - 1
                     : static_cast<std::uint64_t>(
                           std::pow(u * nmMinus1 + 1.0, invE)) - 1;
        return r < count ? r : count - 1;
    }

  private:
    std::uint64_t count;
    bool harmonic;
    double logN = 0.0;
    double nmMinus1 = 0.0;
    double invE = 0.0;
};

} // namespace chameleon

#endif // CHAMELEON_COMMON_RNG_HH
