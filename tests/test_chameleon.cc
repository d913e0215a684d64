/**
 * @file
 * Basic Chameleon tests: every ISA-Alloc (Fig 8/9) and ISA-Free
 * (Fig 10/11) flowchart path, cache-mode hit/fill behaviour, the
 * security clearing rule (§V-D2), mode statistics (Fig 16), and
 * Polymorphic memory's no-hot-swap behaviour.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "core/chameleon.hh"
#include "core/polymorphic.hh"
#include "dram/dram_device.hh"

using namespace chameleon;

namespace
{

struct ChamRig
{
    std::unique_ptr<DramDevice> stacked;
    std::unique_ptr<DramDevice> offchip;
    std::unique_ptr<ChameleonMemory> cham;

    explicit ChamRig(PomConfig cfg = PomConfig(),
                     std::uint64_t s_bytes = 64_KiB,
                     std::uint64_t o_bytes = 320_KiB)
    {
        DramTimings st = stackedDramConfig();
        st.capacity = s_bytes;
        DramTimings ot = offchipDramConfig();
        ot.capacity = o_bytes;
        stacked = std::make_unique<DramDevice>(st);
        offchip = std::make_unique<DramDevice>(ot);
        cham = std::make_unique<ChameleonMemory>(stacked.get(),
                                                 offchip.get(), cfg);
        cham->enableFunctional(true);
    }

    /** Home address of (group, logical slot). */
    Addr
    home(std::uint64_t g, std::uint32_t slot) const
    {
        return cham->space().homeAddr(g, slot);
    }

    /** Allocate every segment of group @p g. */
    void
    allocGroup(std::uint64_t g)
    {
        for (std::uint32_t s = 0; s < cham->space().slotsPerGroup();
             ++s)
            cham->isaAlloc(home(g, s), 0);
    }
};

} // namespace

TEST(Chameleon, BootsInCacheMode)
{
    ChamRig rig;
    EXPECT_DOUBLE_EQ(rig.cham->cacheModeFraction(), 1.0);
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, AllocStackedSwitchesToPom)
{
    ChamRig rig;
    // Fig 8 flow 1-2-3-7-8: nothing cached, direct transition.
    rig.cham->isaAlloc(rig.home(0, 0), 0);
    EXPECT_EQ(static_cast<int>(rig.cham->groupMode(0)),
              static_cast<int>(GroupMode::Pom));
    EXPECT_EQ(rig.cham->chamStats().allocTransitions, 1u);
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, AllocOffchipKeepsMode)
{
    ChamRig rig;
    // Fig 8 flow 1-2-4-5.
    rig.cham->isaAlloc(rig.home(0, 1), 0);
    EXPECT_EQ(static_cast<int>(rig.cham->groupMode(0)),
              static_cast<int>(GroupMode::Cache));
    EXPECT_EQ(rig.cham->groupAbv(0), 0b10u);
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, FreeStackedSwitchesToCache)
{
    ChamRig rig;
    rig.cham->isaAlloc(rig.home(0, 0), 0);
    // Fig 10 flow 1-2-3-7-8: not remapped, direct transition.
    rig.cham->isaFree(rig.home(0, 0), 0);
    EXPECT_EQ(static_cast<int>(rig.cham->groupMode(0)),
              static_cast<int>(GroupMode::Cache));
    EXPECT_EQ(rig.cham->chamStats().freeTransitions, 1u);
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, FreeRemappedStackedSwapsBack)
{
    PomConfig cfg;
    cfg.swapThreshold = 2;
    cfg.burstCounter = true;
    ChamRig rig(cfg);
    rig.allocGroup(0);
    // Heat off-chip segment 1 until it swaps into the stacked slot.
    Cycle t = 0;
    while (rig.cham->stats().swaps == 0) {
        const Addr off = (t % 2) * 128;
        rig.cham->access(rig.home(0, 1) + off, AccessType::Read, ++t);
    }
    ASSERT_NE(rig.cham->entry(0).perm[0], 0u);
    const auto moves_before = rig.cham->stats().isaMoves;
    // Fig 10 flow 1-2-3-6-8 / Fig 11: the freed stacked segment is
    // proactively swapped back so the stacked slot becomes free.
    rig.cham->isaFree(rig.home(0, 0), ++t);
    EXPECT_GT(rig.cham->stats().isaMoves, moves_before);
    EXPECT_EQ(rig.cham->entry(0).perm[0], 0u);
    EXPECT_EQ(static_cast<int>(rig.cham->groupMode(0)),
              static_cast<int>(GroupMode::Cache));
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, CacheModeFillsAndHits)
{
    ChamRig rig;
    // Stacked segment free (cache mode), off-chip segment allocated.
    rig.cham->isaAlloc(rig.home(0, 1), 0);
    const Addr a = rig.home(0, 1);
    Cycle t = 0;
    // Re-referencing bursts trigger a fill; then hits are stacked.
    bool hit = false;
    for (int i = 0; i < 16 && !hit; ++i)
        hit = rig.cham->access(a + (i % 2) * 128, AccessType::Read,
                               ++t)
                  .stackedHit;
    EXPECT_TRUE(hit);
    EXPECT_GT(rig.cham->stats().fills, 0u);
    EXPECT_GT(rig.cham->chamStats().cacheHits, 0u);
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, AllocEvictsCachedSegmentWithWriteback)
{
    ChamRig rig;
    rig.cham->isaAlloc(rig.home(0, 1), 0);
    const Addr a = rig.home(0, 1);
    // Fill via read misses (write misses are write-around), then
    // dirty the cached copy with a write hit.
    Cycle t = 0;
    bool hit = false;
    for (int i = 0; i < 16 && !hit; ++i)
        hit = rig.cham->access(a + (i % 2) * 128, AccessType::Read,
                               ++t)
                  .stackedHit;
    ASSERT_TRUE(hit);
    ASSERT_TRUE(
        rig.cham->access(a, AccessType::Write, ++t).stackedHit);
    rig.cham->functionalWrite(a, 4242);
    // Fig 8 flow 1-2-3-6-8: ISA-Alloc for the stacked segment writes
    // the dirty cached copy back before the mode switch.
    rig.cham->isaAlloc(rig.home(0, 0), ++t);
    EXPECT_GT(rig.cham->stats().writebacks, 0u);
    EXPECT_EQ(static_cast<int>(rig.cham->groupMode(0)),
              static_cast<int>(GroupMode::Pom));
    EXPECT_EQ(rig.cham->functionalRead(a).value(), 4242u)
        << "dirty cache-mode data lost on mode transition";
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, FreeOffchipDropsCachedCopy)
{
    ChamRig rig;
    rig.cham->isaAlloc(rig.home(0, 1), 0);
    const Addr a = rig.home(0, 1);
    Cycle t = 0;
    bool hit = false;
    for (int i = 0; i < 16 && !hit; ++i)
        hit = rig.cham->access(a + (i % 2) * 128, AccessType::Read,
                               ++t)
                  .stackedHit;
    ASSERT_TRUE(hit);
    // Fig 10 flow 1-2-4-5 + dead-copy drop.
    rig.cham->isaFree(a, ++t);
    EXPECT_EQ(rig.cham->groupAbv(0), 0u);
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, SecurityClearOnFree)
{
    ChamRig rig;
    rig.cham->isaAlloc(rig.home(0, 1), 0);
    const Addr a = rig.home(0, 1);
    rig.cham->access(a, AccessType::Write, 1);
    rig.cham->functionalWrite(a, 999);
    rig.cham->isaFree(a, 2);
    // §V-D2: freed segments are cleared; a later owner must not see
    // the old bytes.
    EXPECT_FALSE(rig.cham->functionalRead(a).has_value());
    rig.cham->isaAlloc(a, 3);
    EXPECT_FALSE(rig.cham->functionalRead(a).has_value());
    EXPECT_GT(rig.cham->chamStats().segmentClears, 0u);
}

TEST(Chameleon, CacheModeFractionMatchesFreeStackedSegments)
{
    ChamRig rig;
    const std::uint64_t groups = rig.cham->space().numGroups();
    // Allocate the stacked segment of every even group.
    for (std::uint64_t g = 0; g < groups; g += 2)
        rig.cham->isaAlloc(rig.home(g, 0), 0);
    EXPECT_NEAR(rig.cham->cacheModeFraction(), 0.5, 1e-9);
}

TEST(Chameleon, PomModeGroupsBehaveLikePom)
{
    PomConfig cfg;
    cfg.swapThreshold = 2;
    cfg.burstCounter = true;
    ChamRig rig(cfg);
    rig.allocGroup(0);
    Cycle t = 0;
    bool swapped = false;
    for (int i = 0; i < 64 && !swapped; ++i) {
        rig.cham->access(rig.home(0, 1) + (i % 2) * 128,
                         AccessType::Read, ++t);
        swapped = rig.cham->stats().swaps > 0;
    }
    EXPECT_TRUE(swapped);
    EXPECT_TRUE(
        rig.cham->access(rig.home(0, 1), AccessType::Read, ++t)
            .stackedHit);
}

TEST(Chameleon, DoubleAllocAndFreeAreSurvivable)
{
    ChamRig rig;
    setQuiet(true);
    rig.cham->isaAlloc(rig.home(0, 0), 0);
    rig.cham->isaAlloc(rig.home(0, 0), 1); // warns, no corruption
    rig.cham->isaFree(rig.home(0, 0), 2);
    rig.cham->isaFree(rig.home(0, 0), 3); // warns, no corruption
    setQuiet(false);
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Chameleon, InvariantStorm)
{
    PomConfig cfg;
    cfg.swapThreshold = 2;
    cfg.burstCounter = true;
    ChamRig rig(cfg);
    Rng rng(101);
    const std::uint64_t os_bytes = rig.cham->osVisibleBytes();
    const std::uint64_t segs = os_bytes / 2_KiB;
    std::vector<bool> allocated(segs, false);
    Cycle t = 0;
    for (int i = 0; i < 50000; ++i) {
        const int op = static_cast<int>(rng.below(10));
        if (op < 2) {
            const std::uint64_t s = rng.below(segs);
            if (!allocated[s]) {
                rig.cham->isaAlloc(s * 2_KiB, ++t);
                allocated[s] = true;
            }
        } else if (op < 4) {
            const std::uint64_t s = rng.below(segs);
            if (allocated[s]) {
                rig.cham->isaFree(s * 2_KiB, ++t);
                allocated[s] = false;
            }
        } else {
            const Addr a = rng.below(os_bytes / 64) * 64;
            rig.cham->access(a, rng.chance(0.3) ? AccessType::Write
                                                : AccessType::Read,
                             ++t);
        }
        if (i % 5000 == 0) {
            ASSERT_TRUE(rig.cham->checkInvariants())
                << "invariant broken at step " << i;
        }
    }
    EXPECT_TRUE(rig.cham->checkInvariants());
}

TEST(Polymorphic, NeverHotSwapsInPomMode)
{
    DramTimings st = stackedDramConfig();
    st.capacity = 64_KiB;
    DramTimings ot = offchipDramConfig();
    ot.capacity = 320_KiB;
    DramDevice stacked(st), offchip(ot);
    PolymorphicMemory poly(&stacked, &offchip);
    EXPECT_STREQ(poly.name(), "polymorphic");
    // Fully allocate group 0, then hammer an off-chip segment.
    for (std::uint32_t s = 0; s < poly.space().slotsPerGroup(); ++s)
        poly.isaAlloc(poly.space().homeAddr(0, s), 0);
    Cycle t = 0;
    for (int i = 0; i < 500; ++i)
        poly.access(poly.space().homeAddr(0, 1) + (i % 2) * 128,
                    AccessType::Read, ++t);
    EXPECT_EQ(poly.stats().swaps, 0u);
}

TEST(Polymorphic, StillCachesFreeStackedSpace)
{
    DramTimings st = stackedDramConfig();
    st.capacity = 64_KiB;
    DramTimings ot = offchipDramConfig();
    ot.capacity = 320_KiB;
    DramDevice stacked(st), offchip(ot);
    PolymorphicMemory poly(&stacked, &offchip);
    poly.isaAlloc(poly.space().homeAddr(0, 1), 0);
    Cycle t = 0;
    bool hit = false;
    for (int i = 0; i < 16 && !hit; ++i)
        hit = poly.access(poly.space().homeAddr(0, 1) + (i % 2) * 128,
                          AccessType::Read, ++t)
                  .stackedHit;
    EXPECT_TRUE(hit);
}

TEST(Chameleon, NullStackedDeviceIsFatal)
{
    DramDevice offchip(offchipDramConfig());
    EXPECT_DEATH(ChameleonMemory(nullptr, &offchip),
                 "needs a stacked device");
}
