/**
 * @file
 * Small helpers shared by the perfbench workloads: wall clocks,
 * order statistics, a deterministic seed mixer, the metric record the
 * benchmark prints, and the outcome counters every workload fills in.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** SplitMix64 finalizer: the one source of seed-derived choices. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Fisher-Yates shuffle of [0, n) driven by @p seed. */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed);

/** Nearest-rank percentile, @p q in [0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> values, double q);

/** Middle value (mean of the two middles for an even count). */
double median(std::vector<double> values);

double mean(const std::vector<double> &values);

/** Peak resident set of this process (VmHWM), MiB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Name-ordered metric set printed as the result's "metrics". */
using Metrics = std::map<std::string, Metric>;

/**
 * What a workload attempted and how it went. Every refused, failed or
 * timed-out operation is one failed attempt; any output that differs
 * from its reference makes the run incorrect and is described in
 * errors (printed to stderr, capped).
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    bool correct() const { return errors.empty(); }
    void fail(std::string what) { errors.push_back(std::move(what)); }
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
