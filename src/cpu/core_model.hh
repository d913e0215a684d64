/**
 * @file
 * Trace-driven core timing model.
 *
 * Each core retires compute instructions at CPI 1 and issues its
 * stream's memory references through a bounded outstanding-miss
 * window (MLP model): up to maxOutstanding read misses may overlap;
 * issuing past the window stalls the core until the oldest completes,
 * the way a full ROB/MSHR file would. Writes are posted (they consume
 * memory bandwidth but do not block retirement). Page faults block
 * the core outright, matching the uninterruptible "D" state the
 * paper's Fig 5 analysis describes.
 *
 * Thread-compatible, not thread-safe: cores belong to one System and
 * its thread.
 */

#ifndef CHAMELEON_CPU_CORE_MODEL_HH
#define CHAMELEON_CPU_CORE_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace chameleon
{

/** Core tuning parameters. */
struct CoreConfig
{
    /** Maximum overlapped outstanding read misses (MLP); >= 1. */
    std::uint32_t maxOutstanding = 2;
};

/** One hardware context. */
class CoreModel
{
  public:
    explicit CoreModel(const CoreConfig &config = CoreConfig())
        : cfg(config)
    {
        if (cfg.maxOutstanding == 0)
            fatal("CoreConfig::maxOutstanding must be at least 1");
    }

    /** Core-local current cycle. */
    Cycle now() const { return clock; }

    /** Instructions retired so far. */
    std::uint64_t retired() const { return instrRetired; }

    /** Cycles spent blocked on page faults. */
    Cycle faultStall() const { return faultStallCycles; }

    /** Retire @p n compute instructions (CPI 1). */
    void
    retireCompute(std::uint64_t n)
    {
        clock += n;
        instrRetired += n;
    }

    /**
     * Reserve a window slot for a read miss; returns the cycle the
     * request can issue (stalls the core if the window is full).
     */
    Cycle
    issueRead()
    {
        while (outstanding.size() >= cfg.maxOutstanding)
            retireSoonest();
        return clock;
    }

    /** Record the completion time of an issued read miss. */
    void
    completeRead(Cycle done)
    {
        outstanding.insert(std::upper_bound(outstanding.begin(),
                                            outstanding.end(), done,
                                            std::greater<Cycle>()),
                           done);
        ++instrRetired;
        ++clock;
    }

    /** A posted write retires immediately. */
    void
    retireWrite()
    {
        ++instrRetired;
        ++clock;
    }

    /** Block the core for @p cycles (page fault). */
    void
    blockFor(Cycle cycles)
    {
        clock += cycles;
        faultStallCycles += cycles;
    }

    /** Wait for all outstanding misses (end of run). */
    void
    drain()
    {
        while (!outstanding.empty())
            retireSoonest();
    }

    /** Retired-instruction IPC at the current clock. */
    double
    ipc() const
    {
        return clock ? static_cast<double>(instrRetired) /
                           static_cast<double>(clock)
                     : 0.0;
    }

  private:
    /** Wait for the earliest-completing outstanding miss. */
    void
    retireSoonest()
    {
        clock = std::max(clock, outstanding.back());
        outstanding.pop_back();
    }

    CoreConfig cfg;
    Cycle clock = 0;
    std::uint64_t instrRetired = 0;
    Cycle faultStallCycles = 0;
    /**
     * Completion cycles of the outstanding misses, kept in descending
     * order so the soonest is at back(). The window holds a handful of
     * entries (maxOutstanding), so a sorted insert beats a heap.
     */
    std::vector<Cycle> outstanding;
};

} // namespace chameleon

#endif // CHAMELEON_CPU_CORE_MODEL_HH
