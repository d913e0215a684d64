/**
 * @file
 * DRAM device model tests: timing invariants, row-buffer behaviour,
 * bus serialization, refresh blackouts, bulk-transfer accounting, and
 * parameterized checks over both Table I device configurations.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dram/dram_device.hh"
#include "dram/timings.hh"

using namespace chameleon;

namespace
{

DramTimings
tinyConfig()
{
    DramTimings t = offchipDramConfig(1, 16_MiB);
    t.name = "tiny";
    return t;
}

} // namespace

TEST(DramTimings, PeakBandwidthTableI)
{
    const DramTimings stacked = stackedDramConfig();
    const DramTimings off = offchipDramConfig();
    // 1.6GHz * 2 (DDR) * 16B * 2ch = 102.4 GB/s
    EXPECT_NEAR(stacked.peakBandwidth(), 102.4e9, 1e8);
    // 0.8GHz * 2 * 8B * 2ch = 25.6 GB/s
    EXPECT_NEAR(off.peakBandwidth(), 25.6e9, 1e8);
}

TEST(DramTimings, BurstCycles)
{
    EXPECT_EQ(stackedDramConfig().burstCycles(), 2u);
    EXPECT_EQ(offchipDramConfig().burstCycles(), 4u);
    EXPECT_EQ(offchipDramConfig().burstCycles(128), 8u);
}

TEST(DramDevice, StackedFasterThanOffchipUnloaded)
{
    DramDevice stacked(stackedDramConfig(64));
    DramDevice off(offchipDramConfig(64));
    EXPECT_LT(stacked.idleHitLatency(), off.idleHitLatency());
}

TEST(DramDevice, CompletionAfterIssue)
{
    DramDevice dev(tinyConfig());
    Rng rng; // default seed
    for (int i = 0; i < 2000; ++i) {
        const Cycle when = static_cast<Cycle>(i) * 7;
        const Addr addr = (static_cast<Addr>(i) * 8191) % (16_MiB);
        const Cycle done =
            dev.access(addr / 64 * 64, AccessType::Read, when);
        ASSERT_GT(done, when);
    }
    (void)rng;
}

TEST(DramDevice, RowHitFasterThanConflict)
{
    DramDevice dev(tinyConfig());
    // Open a row, then hit it.
    const Cycle t0 = 1'000'000;
    dev.access(0, AccessType::Read, t0);
    const Cycle hit_done = dev.access(64, AccessType::Read, t0 + 500);
    const Cycle hit_lat = hit_done - (t0 + 500);

    // Conflict: same bank, different row. With 2 channels and a 2KiB
    // row, addresses 2*rowBytes*channels apart in the same bank-step
    // pattern conflict; compute a conflicting address by walking until
    // the stats show a conflict.
    const std::uint64_t conflicts_before = dev.stats().rowConflicts;
    Cycle conf_lat = 0;
    for (Addr cand = 4_KiB; cand < 8_MiB; cand += 4_KiB) {
        const Cycle start = t0 + 1'000'000;
        const Cycle done = dev.access(cand, AccessType::Read, start);
        if (dev.stats().rowConflicts > conflicts_before) {
            conf_lat = done - start;
            break;
        }
    }
    ASSERT_GT(conf_lat, 0u) << "no conflicting address found";
    EXPECT_LT(hit_lat, conf_lat);
}

TEST(DramDevice, SequentialStreamHitsRows)
{
    DramDevice dev(tinyConfig());
    Cycle t = 0;
    for (Addr a = 0; a < 1_MiB; a += 64)
        dev.access(a, AccessType::Read, t += 10);
    const auto &st = dev.stats();
    // A linear sweep should be strongly row-hit dominated.
    EXPECT_GT(st.rowHits, (st.rowMisses + st.rowConflicts) * 4);
}

TEST(DramDevice, RandomPatternConflicts)
{
    DramDevice dev(tinyConfig());
    Rng rng(17);
    Cycle t = 0;
    for (int i = 0; i < 20000; ++i)
        dev.access(rng.below(16_MiB / 64) * 64, AccessType::Read,
                   t += 3);
    const auto &st = dev.stats();
    EXPECT_GT(st.rowConflicts, st.rowHits);
}

TEST(DramDevice, BusSerializesBackToBack)
{
    DramDevice dev(tinyConfig());
    // Two same-channel same-row accesses issued at the same cycle
    // (64B blocks interleave across the 2 channels, so blocks 0 and 2
    // share channel 0): the second serializes on the data bus.
    const Cycle t0 = 40'000; // clear of the refresh blackout
    const Cycle d1 = dev.access(0, AccessType::Read, t0);
    const Cycle d2 = dev.access(128, AccessType::Read, t0);
    EXPECT_GT(d2, d1);
}

TEST(DramDevice, ThroughputBoundedByPeakBandwidth)
{
    const DramTimings cfg = tinyConfig();
    DramDevice dev(cfg);
    // Saturate: issue every access at cycle 0 and measure the time to
    // drain N blocks.
    const std::uint64_t blocks = 4096;
    Cycle last = 0;
    for (std::uint64_t i = 0; i < blocks; ++i)
        last = std::max(last,
                        dev.access(i * 64, AccessType::Read, 0));
    const double bytes = static_cast<double>(blocks) * 64.0;
    const double seconds =
        static_cast<double>(last) / (cpuFreqGhz * 1e9);
    const double gbps = bytes / seconds;
    EXPECT_LE(gbps, cfg.peakBandwidth() * 1.05);
    // And the model should achieve a decent fraction of peak when
    // streaming.
    EXPECT_GE(gbps, cfg.peakBandwidth() * 0.3);
}

TEST(DramDevice, RefreshBlackoutDelays)
{
    DramTimings cfg = tinyConfig();
    DramDevice dev(cfg);
    // An access landing exactly at the top of a refresh interval is
    // pushed past tRFC.
    const auto t_refi =
        static_cast<Cycle>(cfg.tRefiNs * cpuFreqGhz + 0.5);
    const auto t_rfc =
        static_cast<Cycle>(cfg.tRfcNs * cpuFreqGhz + 0.5);
    const Cycle when = t_refi; // start of second refresh window
    const Cycle done = dev.access(0, AccessType::Read, when);
    EXPECT_GE(done, when + t_rfc);
    EXPECT_GT(dev.stats().refreshStalls, 0u);
}

TEST(DramDevice, StatsCountReadsWritesBytes)
{
    DramDevice dev(tinyConfig());
    dev.access(0, AccessType::Read, 0);
    dev.access(64, AccessType::Write, 0);
    dev.access(128, AccessType::Read, 0);
    EXPECT_EQ(dev.stats().reads, 2u);
    EXPECT_EQ(dev.stats().writes, 1u);
    EXPECT_EQ(dev.stats().bytesTransferred, 192u);
    EXPECT_GT(dev.stats().avgReadLatency(), 0.0);
    dev.resetStats();
    EXPECT_EQ(dev.stats().reads, 0u);
}

TEST(DramDevice, BulkTransferAccountsAllBytes)
{
    DramDevice dev(tinyConfig());
    dev.bulkTransfer(0, 2048, AccessType::Read, 100);
    EXPECT_EQ(dev.stats().bytesTransferred, 2048u);
    EXPECT_EQ(dev.stats().reads, 32u);
}

TEST(DramDevice, BulkTransferCompletesAfterStart)
{
    DramDevice dev(tinyConfig());
    const Cycle done = dev.bulkTransfer(0, 2048, AccessType::Write,
                                        5000);
    EXPECT_GT(done, 5000u);
}

TEST(DramDevice, OutOfRangeAddressPanics)
{
    DramDevice dev(tinyConfig());
    EXPECT_DEATH(dev.access(16_MiB, AccessType::Read, 0), "beyond");
}

TEST(DramDevice, QueueDelayGrowsUnderLoad)
{
    DramDevice dev(tinyConfig());
    EXPECT_EQ(dev.estimatedQueueDelay(0), 0u);
    for (int i = 0; i < 64; ++i)
        dev.access(static_cast<Addr>(i) * 64, AccessType::Read, 0);
    EXPECT_GT(dev.estimatedQueueDelay(0), 0u);
}

/** Parameterized over both Table I device configurations. */
class DramConfigTest : public ::testing::TestWithParam<int>
{
  protected:
    DramTimings
    config() const
    {
        return GetParam() == 0 ? stackedDramConfig(64)
                               : offchipDramConfig(64);
    }
};

TEST_P(DramConfigTest, MonotoneUnderBackpressure)
{
    DramDevice dev(config());
    Cycle prev = 0;
    for (int i = 0; i < 1000; ++i) {
        const Cycle done = dev.access((i * 64) % dev.capacity(),
                                      AccessType::Read, 0);
        EXPECT_GE(done, prev > 64 ? prev - 64 : 0);
        prev = std::max(prev, done);
    }
}

TEST_P(DramConfigTest, EveryAddressMapsSomewhere)
{
    DramDevice dev(config());
    Rng rng(23);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.below(dev.capacity() / 64) * 64;
        EXPECT_GT(dev.access(a, AccessType::Read, 0), 0u);
    }
}

namespace
{

/** The division-based address mapping mapAddress must reproduce. */
void
divisionMap(const DramTimings &t, Addr addr, std::uint32_t &channel,
            std::uint32_t &bank, std::uint64_t &row)
{
    const Addr block = addr / 64;
    channel = static_cast<std::uint32_t>(block % t.channels);
    const Addr chan_local = block / t.channels;
    const Addr row_seq = chan_local / (t.rowBytes / 64);
    const std::uint32_t banks = t.ranksPerChannel * t.banksPerRank;
    bank = static_cast<std::uint32_t>(row_seq % banks);
    row = row_seq / banks;
}

void
expectMappingMatchesDivision(const DramTimings &t)
{
    const DramDevice dev(t);
    Rng rng(29);
    for (int i = 0; i < (1 << 20); ++i) {
        const Addr a = rng.below(t.capacity);
        std::uint32_t ch, bank, want_ch, want_bank;
        std::uint64_t row, want_row;
        dev.mapAddress(a, ch, bank, row);
        divisionMap(t, a, want_ch, want_bank, want_row);
        ASSERT_EQ(ch, want_ch) << t.name << " addr " << a;
        ASSERT_EQ(bank, want_bank) << t.name << " addr " << a;
        ASSERT_EQ(row, want_row) << t.name << " addr " << a;
    }
}

} // namespace

TEST_P(DramConfigTest, MappingMatchesDivisionFormula)
{
    // Full Table I capacity, so the high address bits are exercised.
    expectMappingMatchesDivision(GetParam() == 0 ? stackedDramConfig()
                                                 : offchipDramConfig());
}

TEST(DramDevice, MappingMatchesDivisionFormulaOtherGeometry)
{
    DramTimings t = offchipDramConfig();
    t.channels = 8;
    t.ranksPerChannel = 1;
    t.banksPerRank = 4;
    t.rowBytes = 8192;
    expectMappingMatchesDivision(t);
}

TEST(DramDevice, NonPowerOfTwoGeometryIsFatal)
{
    DramTimings t = tinyConfig();
    t.channels = 3;
    EXPECT_DEATH(DramDevice{t}, "channels 3 must be a power of two");
    t = tinyConfig();
    t.banksPerRank = 6;
    EXPECT_DEATH(DramDevice{t}, "ranksPerChannel\\*banksPerRank 12");
    t = tinyConfig();
    t.rowBytes = 32;
    EXPECT_DEATH(DramDevice{t}, "rowBytes 32");
}

INSTANTIATE_TEST_SUITE_P(BothDevices, DramConfigTest,
                         ::testing::Values(0, 1));

namespace
{

/** The refresh rule as a closed formula: the division per call. */
Cycle
refreshByDivision(Cycle start, Cycle period, Cycle blackout)
{
    const Cycle win = start / period * period;
    return start < win + blackout ? win + blackout : start;
}

} // namespace

TEST(RefreshWindow, MatchesDivisionFormula)
{
    const DramTimings t = offchipDramConfig();
    const auto period = static_cast<Cycle>(t.tRefiNs * cpuFreqGhz + 0.5);
    const auto blackout = static_cast<Cycle>(t.tRfcNs * cpuFreqGhz + 0.5);
    RefreshWindow win(period, blackout);
    Rng rng(17);
    Cycle start = 0;
    std::uint64_t stalls = 0, formula_stalls = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        // Random walks forward and back, jumps across many windows,
        // repeats, and the exact window and blackout edges.
        switch (rng.below(8)) {
          case 0:
            start -= std::min<Cycle>(start, rng.below(3 * period));
            break;
          case 1:
            start += rng.below(50 * period);
            break;
          case 2:
            start = start / period * period + blackout - rng.below(2);
            break;
          case 3:
            start = start / period * period - rng.below(2) *
                                                  std::min<Cycle>(start, 1);
            break;
          case 4:
            break;
          default:
            start += rng.below(400);
        }
        const Cycle got = win.adjust(start);
        const Cycle want = refreshByDivision(start, period, blackout);
        ASSERT_EQ(got, want) << "start " << start << " step " << i;
        stalls += got != start;
        formula_stalls += want != start;
    }
    EXPECT_EQ(stalls, formula_stalls);
    EXPECT_GT(stalls, 10'000u);
}

TEST(RefreshWindow, MonotoneAndDecreasingSequences)
{
    RefreshWindow win(1000, 100);
    for (Cycle s = 0; s < 20'000; s += 7)
        ASSERT_EQ(win.adjust(s), refreshByDivision(s, 1000, 100)) << s;
    for (Cycle s = 20'000; s-- > 0;)
        ASSERT_EQ(win.adjust(s), refreshByDivision(s, 1000, 100)) << s;
}

// Completion-time sum and refresh-stall count of a DramDevice driven by
// a non-monotonic access sequence (demand and bulk traffic), pinned on
// the commit whose refreshAdjust divided on every access.
TEST(DramDevice, NonMonotonicAccessesMatchPinnedTotals)
{
    DramDevice dev(offchipDramConfig(64));
    std::uint64_t x = 88172645463325252ull;
    Cycle when = 0, sum = 0;
    for (int i = 0; i < 200'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Mostly forward, with frequent jumps back across windows.
        if (x % 5 == 0)
            when -= std::min<Cycle>(when, x % 40'000);
        else
            when += x % 700;
        const Addr a = (x >> 20) % dev.capacity() & ~Addr(63);
        sum += dev.access(a, (x & 4) ? AccessType::Write : AccessType::Read,
                          when);
        if (i % 64 == 0)
            sum += dev.bulkTransfer(a & ~Addr(4095), 2048,
                                    AccessType::Write, when);
    }
    EXPECT_EQ(sum, 198309163812u);
    EXPECT_EQ(dev.stats().refreshStalls, 1368u);
}
