#include "util.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <string>

namespace perfbench
{

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = n; i > 1; --i) {
        seed = mix64(seed);
        std::swap(order[i - 1], order[seed % i]);
    }
    return order;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[rank == 0 ? 0 : rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double hi = values[mid];
    if (values.size() % 2)
        return hi;
    return (*std::max_element(values.begin(), values.begin() + mid) +
            hi) / 2.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

} // namespace perfbench
