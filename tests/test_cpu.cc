/**
 * @file
 * Core timing model tests: MLP window semantics, fault blocking,
 * IPC accounting, and equivalence with a heap-based MLP window.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hh"
#include "cpu/core_model.hh"

using namespace chameleon;

TEST(CoreModel, ComputeAdvancesClockAtCpiOne)
{
    CoreModel core;
    core.retireCompute(100);
    EXPECT_EQ(core.now(), 100u);
    EXPECT_EQ(core.retired(), 100u);
    EXPECT_DOUBLE_EQ(core.ipc(), 1.0);
}

TEST(CoreModel, ZeroWindowIsFatal)
{
    CoreConfig cfg;
    cfg.maxOutstanding = 0;
    EXPECT_DEATH(CoreModel{cfg}, "CoreConfig::maxOutstanding");
}

TEST(CoreModel, ReadsOverlapUpToWindow)
{
    CoreConfig cfg;
    cfg.maxOutstanding = 2;
    CoreModel core(cfg);
    // Two misses fit in the window without stalling.
    Cycle t1 = core.issueRead();
    core.completeRead(t1 + 1000);
    Cycle t2 = core.issueRead();
    core.completeRead(t2 + 1000);
    EXPECT_LE(core.now(), 2u + 0u); // only the two retire ticks
    // Third miss must wait for the first to complete.
    Cycle t3 = core.issueRead();
    EXPECT_GE(t3, 1000u);
}

TEST(CoreModel, DrainWaitsForAllOutstanding)
{
    CoreModel core;
    Cycle t = core.issueRead();
    core.completeRead(t + 5000);
    core.drain();
    EXPECT_GE(core.now(), 5000u);
}

TEST(CoreModel, WritesArePosted)
{
    CoreModel core;
    core.retireWrite();
    core.retireWrite();
    EXPECT_EQ(core.now(), 2u);
    EXPECT_EQ(core.retired(), 2u);
}

TEST(CoreModel, FaultBlocksAndIsTracked)
{
    CoreModel core;
    core.retireCompute(10);
    core.blockFor(100'000);
    EXPECT_EQ(core.now(), 100'010u);
    EXPECT_EQ(core.faultStall(), 100'000u);
    EXPECT_LT(core.ipc(), 0.001);
}

TEST(CoreModel, IpcReflectsMemoryStalls)
{
    CoreConfig cfg;
    cfg.maxOutstanding = 1;
    CoreModel core(cfg);
    for (int i = 0; i < 10; ++i) {
        core.retireCompute(10);
        const Cycle t = core.issueRead();
        core.completeRead(t + 90); // 90-cycle memory latency
    }
    core.drain();
    // ~110 instructions over ~10*(10+90) cycles.
    EXPECT_NEAR(core.ipc(), 110.0 / 1000.0, 0.03);
}

namespace
{

/** The MLP window as a min-heap: the model CoreModel must match. */
class HeapCore
{
  public:
    explicit HeapCore(std::uint32_t max_outstanding)
        : maxOutstanding(max_outstanding)
    {
    }

    Cycle
    issueRead()
    {
        while (outstanding.size() >= maxOutstanding)
            popSoonest();
        return clock;
    }

    void
    completeRead(Cycle done)
    {
        outstanding.push(done);
        ++clock;
    }

    void retireCompute(std::uint64_t n) { clock += n; }

    void
    drain()
    {
        while (!outstanding.empty())
            popSoonest();
    }

    Cycle now() const { return clock; }

  private:
    void
    popSoonest()
    {
        if (outstanding.top() > clock)
            clock = outstanding.top();
        outstanding.pop();
    }

    std::uint32_t maxOutstanding;
    Cycle clock = 0;
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        outstanding;
};

} // namespace

TEST(CoreModel, WindowMatchesHeapReference)
{
    for (std::uint32_t window : {1u, 2u, 3u, 8u}) {
        CoreConfig cfg;
        cfg.maxOutstanding = window;
        CoreModel core(cfg);
        HeapCore ref(window);
        Rng rng(window);
        for (int i = 0; i < 200000; ++i) {
            if (rng.chance(0.3)) {
                const std::uint64_t n = rng.below(50);
                core.retireCompute(n);
                ref.retireCompute(n);
            }
            const Cycle issue = core.issueRead();
            ASSERT_EQ(issue, ref.issueRead()) << "window " << window;
            // Random latencies, including duplicates and completions
            // earlier than later-issued ones.
            const Cycle done = issue + rng.below(rng.chance(0.1) ? 4 : 600);
            core.completeRead(done);
            ref.completeRead(done);
            ASSERT_EQ(core.now(), ref.now()) << "window " << window;
            if (rng.chance(0.001)) {
                core.drain();
                ref.drain();
                ASSERT_EQ(core.now(), ref.now()) << "window " << window;
            }
        }
        core.drain();
        ref.drain();
        EXPECT_EQ(core.now(), ref.now()) << "window " << window;
    }
}
