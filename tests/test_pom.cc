/**
 * @file
 * PoM baseline tests: segment-restricted remapping correctness, the
 * competing counter's election and defense, swap bookkeeping and
 * functional integrity across hot swaps.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "common/rng.hh"
#include "dram/dram_device.hh"
#include "memorg/pom.hh"

using namespace chameleon;

namespace
{

struct PomRig
{
    std::unique_ptr<DramDevice> stacked;
    std::unique_ptr<DramDevice> offchip;
    std::unique_ptr<PomMemory> pom;

    explicit PomRig(PomConfig cfg = PomConfig(),
                    std::uint64_t s_bytes = 1_MiB,
                    std::uint64_t o_bytes = 5_MiB)
    {
        DramTimings st = stackedDramConfig();
        st.capacity = s_bytes;
        DramTimings ot = offchipDramConfig();
        ot.capacity = o_bytes;
        stacked = std::make_unique<DramDevice>(st);
        offchip = std::make_unique<DramDevice>(ot);
        pom = std::make_unique<PomMemory>(stacked.get(), offchip.get(),
                                          cfg);
    }
};

} // namespace

TEST(Pom, FullCapacityVisible)
{
    PomRig rig;
    EXPECT_EQ(rig.pom->osVisibleBytes(), 6_MiB);
}

TEST(Pom, StackedHomeHitsStacked)
{
    PomRig rig;
    const auto r = rig.pom->access(0, AccessType::Read, 0);
    EXPECT_TRUE(r.stackedHit);
}

TEST(Pom, OffchipHomeStartsOffchip)
{
    PomRig rig;
    const auto r = rig.pom->access(1_MiB, AccessType::Read, 0);
    EXPECT_FALSE(r.stackedHit);
}

TEST(Pom, HotSegmentSwapsIn)
{
    PomConfig cfg;
    cfg.swapThreshold = 4;
    PomRig rig(cfg);
    const Addr hot = 1_MiB; // off-chip home, group 0, slot 1
    // Non-adjacent re-references so each access counts as evidence.
    Cycle t = 0;
    bool swapped = false;
    for (int i = 0; i < 64 && !swapped; ++i) {
        rig.pom->access(hot + (i % 2) * 128, AccessType::Read, ++t);
        swapped = rig.pom->stats().swaps > 0;
    }
    EXPECT_TRUE(swapped);
    const auto r = rig.pom->access(hot, AccessType::Read, ++t);
    EXPECT_TRUE(r.stackedHit) << "hot segment must now be stacked";
    // And the displaced stacked segment now lives off-chip.
    const auto d = rig.pom->access(0, AccessType::Read, ++t);
    EXPECT_FALSE(d.stackedHit);
}

TEST(Pom, SrtEntryReflectsSwap)
{
    PomConfig cfg;
    cfg.swapThreshold = 2;
    PomRig rig(cfg);
    Cycle t = 0;
    for (int i = 0; i < 32 && rig.pom->stats().swaps == 0; ++i)
        rig.pom->access(1_MiB + (i % 2) * 128, AccessType::Read, ++t);
    ASSERT_GT(rig.pom->stats().swaps, 0u);
    const SrtEntry &e = rig.pom->entry(0);
    EXPECT_EQ(e.perm[1], 0u);
    EXPECT_EQ(e.perm[0], 1u);
    EXPECT_EQ(e.inv[0], 1u);
    EXPECT_EQ(e.inv[1], 0u);
}

TEST(Pom, SequentialStreamDoesNotInstantlySwapWithBurstCounter)
{
    PomConfig cfg;
    cfg.swapThreshold = 4;
    cfg.burstCounter = true;
    PomRig rig(cfg);
    // One sequential pass over an off-chip segment is a single burst:
    // no swap.
    Cycle t = 0;
    for (Addr off = 0; off < 2_KiB; off += 64)
        rig.pom->access(1_MiB + off, AccessType::Read, ++t);
    EXPECT_EQ(rig.pom->stats().swaps, 0u);
}

TEST(Pom, NaiveCounterSwapsOnStreamingPass)
{
    PomConfig cfg;
    cfg.swapThreshold = 8;
    cfg.burstCounter = false; // faithful [25] baseline
    PomRig rig(cfg);
    Cycle t = 0;
    for (Addr off = 0; off < 2_KiB; off += 64)
        rig.pom->access(1_MiB + off, AccessType::Read, ++t);
    EXPECT_GT(rig.pom->stats().swaps, 0u)
        << "a 32-access pass must reach the per-access threshold";
}

TEST(Pom, ResidentDefenseBlocksColdChallenger)
{
    PomConfig cfg;
    cfg.swapThreshold = 4;
    cfg.burstCounter = true;
    PomRig rig(cfg);
    // First make segment A (slot 1) resident in stacked.
    Cycle t = 0;
    while (rig.pom->stats().swaps == 0) {
        const Addr off = (t % 2) * 128;
        rig.pom->access(1_MiB + off, AccessType::Read, ++t);
    }
    // Now interleave: A stays hot, B (slot 2) challenges weakly.
    const Addr b = 1_MiB + rig.pom->space().numGroups() * 2_KiB;
    ASSERT_EQ(rig.pom->space().groupOf(b), 0u);
    for (int i = 0; i < 200; ++i) {
        rig.pom->access(1_MiB + (i % 2) * 128, AccessType::Read, ++t);
        if (i % 4 == 0)
            rig.pom->access(b + (i % 2) * 128, AccessType::Read, ++t);
    }
    EXPECT_EQ(rig.pom->stats().swaps, 1u)
        << "defended resident must not be displaced by a colder peer";
}

TEST(Pom, SwapChargesBothDevices)
{
    PomConfig cfg;
    cfg.swapThreshold = 2;
    PomRig rig(cfg);
    const std::uint64_t s0 = rig.stacked->stats().bytesTransferred;
    const std::uint64_t o0 = rig.offchip->stats().bytesTransferred;
    Cycle t = 0;
    while (rig.pom->stats().swaps == 0) {
        const Addr off = (t % 2) * 128;
        rig.pom->access(1_MiB + off, AccessType::Read, ++t);
    }
    // Each side reads and writes one segment: >= 2 * 2KiB per device.
    EXPECT_GE(rig.stacked->stats().bytesTransferred - s0, 2 * 2_KiB);
    EXPECT_GE(rig.offchip->stats().bytesTransferred - o0, 2 * 2_KiB);
}

TEST(Pom, HotSwapsCanBeDisabled)
{
    PomConfig cfg;
    cfg.enableHotSwaps = false;
    PomRig rig(cfg);
    Cycle t = 0;
    for (int i = 0; i < 500; ++i)
        rig.pom->access(1_MiB + (i % 2) * 128, AccessType::Read, ++t);
    EXPECT_EQ(rig.pom->stats().swaps, 0u);
}

TEST(Pom, SrtLatencyAddsToEveryAccess)
{
    PomConfig fast;
    fast.srtLatency = 0;
    PomConfig slow;
    slow.srtLatency = 100;
    PomRig a(fast), b(slow);
    // Probe clear of the boot-time refresh blackout so the two runs
    // differ only in the SRT lookup charge.
    const Cycle t0 = 50'000;
    const Cycle da = a.pom->access(0, AccessType::Read, t0).done;
    const Cycle db = b.pom->access(0, AccessType::Read, t0).done;
    EXPECT_EQ(db, da + 100);
}

TEST(Pom, FunctionalIntegrityAcrossSwaps)
{
    PomConfig cfg;
    cfg.swapThreshold = 2;
    PomRig rig(cfg);
    rig.pom->enableFunctional(true);
    Rng rng(31);
    std::unordered_map<Addr, std::uint64_t> shadow;
    Cycle t = 0;
    for (int i = 0; i < 30000; ++i) {
        const Addr a = rng.below(6_MiB / 64) * 64;
        const bool write = rng.chance(0.4);
        rig.pom->access(a, write ? AccessType::Write
                                 : AccessType::Read, ++t);
        if (write) {
            const std::uint64_t v = rng.next();
            rig.pom->functionalWrite(a, v);
            shadow[a] = v;
        } else {
            auto it = shadow.find(a);
            if (it != shadow.end()) {
                const auto got = rig.pom->functionalRead(a);
                ASSERT_TRUE(got.has_value());
                ASSERT_EQ(*got, it->second)
                    << "remap lost or corrupted data";
            }
        }
    }
    EXPECT_GT(rig.pom->stats().swaps, 0u)
        << "test should have exercised swaps";
}

TEST(Pom, StatsHitRateConsistent)
{
    PomRig rig;
    Cycle t = 0;
    for (int i = 0; i < 100; ++i)
        rig.pom->access(static_cast<Addr>(i) * 64, AccessType::Read,
                        ++t);
    const auto &st = rig.pom->stats();
    EXPECT_EQ(st.stackedServed + st.offchipServed, 100u);
    EXPECT_GE(st.stackedHitRate(), 0.0);
    EXPECT_LE(st.stackedHitRate(), 1.0);
}

// A null stacked device must stop with the organization's own fatal,
// not a division by the zero stacked capacity in the segment space.
TEST(Pom, NullStackedDeviceIsFatal)
{
    DramDevice offchip(offchipDramConfig());
    EXPECT_DEATH(PomMemory(nullptr, &offchip), "needs a stacked device");
}
