/**
 * @file
 * The expected-stats table: each benchmark job's simulated results,
 * keyed by JobSpec::key() and stored as round-trip doubles, so any
 * change to what the simulator computes fails the benchmark.
 */

#ifndef PERFBENCH_EXPECTED_HH
#define PERFBENCH_EXPECTED_HH

#include <cstdint>
#include <map>
#include <string>

#include "sim/system.hh"

namespace perfbench
{

/** The simulated stats one table row pins down. */
struct JobStats
{
    double ipc = 0.0;
    double hitRate = 0.0;
    std::uint64_t swaps = 0;
    std::uint64_t fills = 0;
    double amal = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t memRefs = 0;
    /** References simulated by run(), warm-up included. */
    std::uint64_t refsTotal = 0;
};

JobStats statsOf(const chameleon::RunResult &r, std::uint64_t refs_total);

/** "" when equal bit for bit, else the first differing field. */
std::string diffStats(const JobStats &expected, const JobStats &actual);

class ExpectedTable
{
  public:
    /** Throws std::runtime_error when @p path is missing or corrupt. */
    static ExpectedTable load(const std::string &path);

    /** Null when @p key has no row. */
    const JobStats *find(const std::string &key) const;

    void set(const std::string &key, const JobStats &stats);

    void save(const std::string &path) const;

  private:
    std::map<std::string, JobStats> rows;
};

} // namespace perfbench

#endif // PERFBENCH_EXPECTED_HH
