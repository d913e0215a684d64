/**
 * @file
 * The stream helper thread: a StreamPrefetcher hands every core the
 * same ops, in the same order, as its stream called inline, across
 * start/stop/restart cycles and in any consumption order; the helper
 * sleeps when its rings are full; System::run starts it only above
 * the inline threshold and while a CPU is free; and runs that use it
 * reproduce, bit for bit, results pinned before it existed.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "sim/experiment.hh"
#include "sim/stream_prefetcher.hh"
#include "sim/system.hh"
#include "workloads/profile.hh"
#include "workloads/stream_gen.hh"

using namespace chameleon;

namespace
{

/** Twelve different Table II apps, one per core. */
std::vector<std::unique_ptr<AddressStream>>
suiteStreams(std::uint64_t seed)
{
    const auto suite = tableTwoSuite(256);
    std::vector<std::unique_ptr<AddressStream>> streams;
    for (std::uint32_t c = 0; c < 12; ++c) {
        const AppProfile &p = suite[c % suite.size()];
        streams.push_back(std::make_unique<SyntheticStream>(
            p, p.copyFootprint(12), seed * 1000003 + c));
    }
    return streams;
}

bool
sameOp(const MemOp &a, const MemOp &b)
{
    return a.vaddr == b.vaddr && a.type == b.type && a.gap == b.gap;
}

/** Every field System::run reports, doubles as exact hex floats. */
std::string
fingerprint(const RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (double v : r.ipcPerCore) {
        h ^= std::bit_cast<std::uint64_t>(v);
        h *= 0x100000001b3ull;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "ipc=%a hit=%a amal=%a mode=%a util=%a swaps=%llu "
                  "fills=%llu major=%llu minor=%llu instr=%llu refs=%llu "
                  "makespan=%llu per_core=%016llx",
                  r.ipcGeoMean, r.stackedHitRate, r.amal,
                  r.cacheModeFraction, r.cpuUtilization,
                  static_cast<unsigned long long>(r.swaps),
                  static_cast<unsigned long long>(r.fills),
                  static_cast<unsigned long long>(r.majorFaults),
                  static_cast<unsigned long long>(r.minorFaults),
                  static_cast<unsigned long long>(r.instructions),
                  static_cast<unsigned long long>(r.memRefs),
                  static_cast<unsigned long long>(r.makespan),
                  static_cast<unsigned long long>(h));
    return buf;
}

AppProfile
helperApp()
{
    AppProfile p;
    p.name = "helperapp";
    p.llcMpki = 25.0;
    p.footprintBytes = 24 * 1_GiB / 512 * 8 / 10;
    p.hotFraction = 0.05;
    p.hotProbability = 0.9;
    p.seqRunBlocks = 16.0;
    p.writeFraction = 0.3;
    return p;
}

SystemConfig
helperConfig(Design d)
{
    BenchOptions o;
    o.scale = 512;
    return makeSystemConfig(d, o);
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

TEST(StreamPrefetcher, MatchesInlineStreamsAcrossRestarts)
{
    auto streams = suiteStreams(5);
    auto twins = suiteStreams(5);
    StreamPrefetcher pf(streams);
    Rng rng(99);
    std::uint64_t starts = 0;
    std::uint64_t popped = 0;
    for (int cycle = 0; cycle < 32; ++cycle) {
        // Random helper-on and helper-off stretches: off stretches
        // drain what the helper buffered, then generate inline.
        if (rng.below(3) != 0) {
            starts += pf.running() ? 0 : 1;
            ASSERT_TRUE(pf.start());
        } else {
            pf.stop();
        }
        const std::uint64_t pops = 1 + rng.below(40'000);
        for (std::uint64_t i = 0; i < pops; ++i) {
            // Skewed core choice: some rings drain, others stay full.
            const auto c = static_cast<std::uint32_t>(
                rng.below(4) == 0 ? rng.below(12) : rng.below(3));
            const MemOp got = pf.next(c);
            const MemOp want = twins[c]->next();
            ASSERT_TRUE(sameOp(got, want))
                << "core " << c << " op " << popped + i << " cycle "
                << cycle;
        }
        popped += pops;
    }
    pf.stop();
    EXPECT_GT(starts, 1u);
    EXPECT_EQ(pf.starts(), starts);
    EXPECT_FALSE(pf.running());
}

TEST(StreamPrefetcher, StopRightAfterStartLosesNothing)
{
    auto streams = suiteStreams(11);
    auto twins = suiteStreams(11);
    StreamPrefetcher pf(streams);
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(pf.start());
        pf.stop();
        const auto c = static_cast<std::uint32_t>(i % 12);
        ASSERT_TRUE(sameOp(pf.next(c), twins[c]->next())) << i;
    }
}

TEST(StreamPrefetcher, HelperSleepsWhenRingsAreFull)
{
    auto streams = suiteStreams(3);
    StreamPrefetcher pf(streams);
    ASSERT_TRUE(pf.start());
    // Filling 12 rings takes about a millisecond; give it ample time,
    // then the helper must sit blocked, not spinning.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const double cpu0 = processCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const double used = processCpuSeconds() - cpu0;
    pf.stop();
    EXPECT_LT(used, 0.05) << "helper used CPU with every ring full";
}

TEST(StreamPrefetcher, BudgetCountsRunsAndHelpers)
{
    const int cpus = SimThreadBudget::cpus();
    ASSERT_GE(cpus, 1);
    std::vector<std::unique_ptr<SimThreadBudget::Job>> runs;
    for (int i = 0; i + 1 < cpus; ++i)
        runs.push_back(std::make_unique<SimThreadBudget::Job>());
    // One CPU left: one reservation fits, the next does not.
    EXPECT_TRUE(SimThreadBudget::hasRoom());
    EXPECT_TRUE(SimThreadBudget::tryReserve());
    EXPECT_FALSE(SimThreadBudget::hasRoom());
    EXPECT_FALSE(SimThreadBudget::tryReserve());
    SimThreadBudget::release();
    runs.push_back(std::make_unique<SimThreadBudget::Job>());
    EXPECT_FALSE(SimThreadBudget::tryReserve());

    // No CPU: no helper, and the streams are still served inline.
    auto streams = suiteStreams(13);
    auto twins = suiteStreams(13);
    StreamPrefetcher pf(streams);
    EXPECT_FALSE(pf.start());
    EXPECT_FALSE(pf.running());
    for (std::uint32_t i = 0; i < 1000; ++i)
        ASSERT_TRUE(sameOp(pf.next(i % 12), twins[i % 12]->next())) << i;
}

// Pinned on the commit before the stream helper existed: a
// chameleon-opt run(600'000, 200'000) of helperApp().
constexpr const char *longRunPinned =
    "ipc=0x1.94f7ad47af8b6p-2 hit=0x1.d48e348f40928p-1 "
    "amal=0x1.0bd3f25079aecp+8 mode=0x1p-1 util=0x1p+0 "
    "swaps=2444 fills=1647 major=0 minor=0 instr=7200304 "
    "refs=179971 makespan=1533789 per_core=acd4eaf687e4b4c8";

TEST(SystemStreamHelper, LongRunMatchesPinnedResult)
{
    System sys(helperConfig(Design::ChameleonOpt));
    sys.loadRateWorkload(helperApp());
    EXPECT_EQ(fingerprint(sys.run(600'000, 200'000)), longRunPinned);
    if (SimThreadBudget::cpus() < 2)
        GTEST_SKIP() << "one CPU: the helper never starts";
    ASSERT_NE(sys.streamPrefetcher(), nullptr);
    EXPECT_EQ(sys.streamPrefetcher()->starts(), 1u);
    EXPECT_FALSE(sys.streamPrefetcher()->running());
}

// The helper's leftover ops from the first run() feed the second;
// both results pinned like longRunPinned.
TEST(SystemStreamHelper, SuccessiveRunsMatchPinnedResults)
{
    System sys(helperConfig(Design::Pom));
    sys.loadRateWorkload(helperApp());
    EXPECT_EQ(fingerprint(sys.run(300'000, 100'000)),
              "ipc=0x1.b0e62603e7e74p-2 hit=0x1.bef4baf3960dap-1 "
              "amal=0x1.f1e5630c4d6c4p+7 mode=-0x1p+0 util=0x1p+0 "
              "swaps=1275 fills=0 major=0 minor=0 instr=3600260 "
              "refs=89500 makespan=716715 per_core=ef257b23b3c4a8a8");
    EXPECT_EQ(fingerprint(sys.run(1'500'000)),
              "ipc=0x1.bbfd1c78642b9p-2 hit=0x1.c2d8ac3979764p-1 "
              "amal=0x1.e2aac507b4fd9p+7 mode=-0x1p+0 util=0x1p+0 "
              "swaps=4247 fills=0 major=0 minor=0 instr=13199855 "
              "refs=329536 makespan=2553826 per_core=1c510806b9610671");
    if (SimThreadBudget::cpus() < 2)
        GTEST_SKIP() << "one CPU: the helper never starts";
    ASSERT_NE(sys.streamPrefetcher(), nullptr);
    EXPECT_EQ(sys.streamPrefetcher()->starts(), 2u);
}

// Pinned on the commit before the lookahead: an alloy-cache
// run(600'000, 200'000) of helperApp() with the process on one CPU,
// so no helper starts and every stream is generated inline.
TEST(SystemStreamHelper, OneCpuRunMatchesPinnedResult)
{
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    std::string got;
    bool inline_streams = false;
    {
        System sys(helperConfig(Design::Alloy));
        sys.loadRateWorkload(helperApp());
        got = fingerprint(sys.run(600'000, 200'000));
        inline_streams = sys.streamPrefetcher() == nullptr;
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_TRUE(inline_streams);
    EXPECT_EQ(got,
              "ipc=0x1.2747441b68aadp-2 hit=0x1.9ef8c44f46abfp-1 "
              "amal=0x1.7c715453e50b2p+8 mode=-0x1p+0 util=0x1p+0 "
              "swaps=0 fills=34106 major=0 minor=0 instr=7200304 "
              "refs=179971 makespan=2107657 per_core=774876241855ffa4");
}

TEST(SystemStreamHelper, ShortRunAllocatesNothing)
{
    System sys(helperConfig(Design::ChameleonOpt));
    sys.loadRateWorkload(helperApp());
    // 12 cores x 100k instructions / 40 per reference: 30k references,
    // under StreamPrefetcher::inlineRefs.
    sys.run(100'000);
    EXPECT_EQ(sys.streamPrefetcher(), nullptr);
}

TEST(SystemStreamHelper, NoHelperWithoutAFreeCpu)
{
    // Every CPU already runs a simulation: the long run stays inline.
    std::vector<std::unique_ptr<SimThreadBudget::Job>> runs;
    for (int i = 0; i < SimThreadBudget::cpus(); ++i)
        runs.push_back(std::make_unique<SimThreadBudget::Job>());
    System sys(helperConfig(Design::ChameleonOpt));
    sys.loadRateWorkload(helperApp());
    EXPECT_EQ(fingerprint(sys.run(600'000, 200'000)), longRunPinned);
    EXPECT_EQ(sys.streamPrefetcher(), nullptr);
}

TEST(SystemStreamHelper, LiveSystemsCountAgainstTheBudget)
{
    // A System counts from construction to destruction, not only
    // while it runs: with one live System per CPU, a long run starts
    // no helper even though the other Systems are idle.
    const int cpus = SimThreadBudget::cpus();
    std::vector<std::unique_ptr<System>> idle;
    for (int i = 0; i + 1 < cpus; ++i)
        idle.push_back(
            std::make_unique<System>(helperConfig(Design::Pom)));
    System sys(helperConfig(Design::ChameleonOpt));
    sys.loadRateWorkload(helperApp());
    EXPECT_EQ(fingerprint(sys.run(600'000, 200'000)), longRunPinned);
    EXPECT_EQ(sys.streamPrefetcher(), nullptr);
    if (cpus < 2)
        GTEST_SKIP() << "one CPU: the helper never starts";
    // Destroying one System frees a CPU for the next long run (run()
    // targets are cumulative: 400k more instructions per core).
    idle.pop_back();
    sys.run(1'200'000);
    ASSERT_NE(sys.streamPrefetcher(), nullptr);
    EXPECT_EQ(sys.streamPrefetcher()->starts(), 1u);
}

TEST(StreamPrefetcher, BudgetedHelperLeavesWhenCpusAreOverrun)
{
    auto streams = suiteStreams(23);
    auto twins = suiteStreams(23);
    StreamPrefetcher pf(streams);
    std::vector<std::unique_ptr<SimThreadBudget::Job>> runs;
    for (int i = 0; i + 1 < SimThreadBudget::cpus(); ++i)
        runs.push_back(std::make_unique<SimThreadBudget::Job>());
    ASSERT_TRUE(pf.start());
    EXPECT_FALSE(SimThreadBudget::hasRoom());
    Rng rng(7);
    auto consume = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            const auto c = static_cast<std::uint32_t>(rng.below(12));
            ASSERT_TRUE(sameOp(pf.next(c), twins[c]->next())) << i;
        }
    };
    consume(50'000);
    // One more simulation thread than CPUs: the helper must give its
    // thread back and the consumer carry on inline, losing nothing.
    runs.push_back(std::make_unique<SimThreadBudget::Job>());
    consume(200'000);
    EXPECT_FALSE(pf.running());
    runs.pop_back();
    EXPECT_TRUE(SimThreadBudget::tryReserve()) << "budget not returned";
    SimThreadBudget::release();
    EXPECT_EQ(pf.starts(), 1u);
}
