/**
 * @file
 * The per-reference kernel against its plain definitions: Divider32
 * and the SegmentSpace decomposition against `/` and `%` on every
 * segment of several geometries, DramDevice::bulkTransfer against the
 * block-by-block loop it replaces (fault injector included), and the
 * read-only prefetch hints of System's lookahead (MiniOs::prefetchPte,
 * MiniOs::peekTranslate, MemOrganization::prefetch) against a twin
 * that never receives them.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "dram/dram_device.hh"
#include "fault/fault_injector.hh"
#include "memorg/segment_space.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace chameleon;

namespace
{

void
expectQuotients(std::uint32_t d, Rng &rng)
{
    const Divider32 div(d);
    const std::uint64_t fixed[] = {0,     1,          d - 1ull,
                                   d,     d + 1ull,   2ull * d,
                                   0xffffffffull, 0xfffffffeull,
                                   0x80000000ull};
    for (std::uint64_t n : fixed) {
        if (n <= 0xffffffffull) {
            ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
        }
    }
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t n = rng.below(1ull << 32);
        ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
    }
}

} // namespace

TEST(Divider32, MatchesDivision)
{
    Rng rng(3);
    for (std::uint32_t d : {1u, 2u, 3u, 5u, 7u, 641u, 1536u, 2048u,
                            98304u, 0x7fffffffu, 0x80000000u,
                            0xfffffffeu, 0xffffffffu})
        expectQuotients(d, rng);
    for (int i = 0; i < 200; ++i)
        expectQuotients(
            static_cast<std::uint32_t>(rng.below(0xffffffffull) + 1),
            rng);
}

/**
 * groupOf, slotOf and offsetOf on the first, last and one random byte
 * of every segment, against the division formulas they replace.
 * Group counts: 2048, 1536 and 98304 (the latter two not powers of
 * two) and 1 (the divider's pass-through case).
 */
TEST(SegmentSpaceKernel, DecompositionMatchesDivisionOnEverySegment)
{
    struct Geometry
    {
        std::uint64_t stacked, offchip, seg;
    };
    const Geometry geometries[] = {
        {4_MiB, 20_MiB, 2_KiB},
        {3_MiB, 21_MiB, 2_KiB},
        {6_MiB, 18_MiB, 64},
        {2_KiB, 10_KiB, 2_KiB},
    };
    Rng rng(17);
    for (const Geometry &g : geometries) {
        const SegmentSpace s(g.stacked, g.offchip, g.seg);
        const std::uint64_t groups = g.stacked / g.seg;
        const std::uint64_t segments = (g.stacked + g.offchip) / g.seg;
        for (std::uint64_t seg = 0; seg < segments; ++seg) {
            const std::uint64_t want_group =
                seg < groups ? seg : (seg - groups) % groups;
            const std::uint64_t want_slot =
                seg < groups ? 0 : 1 + (seg - groups) / groups;
            for (Addr off : {Addr{0}, rng.below(g.seg), g.seg - 1}) {
                const Addr phys = seg * g.seg + off;
                ASSERT_EQ(s.groupOf(phys), want_group) << phys;
                ASSERT_EQ(s.slotOf(phys), want_slot) << phys;
                ASSERT_EQ(s.offsetOf(phys), phys % g.seg) << phys;
            }
        }
    }
}

namespace
{

/** Bytes and counts the reference loop charged without an access. */
struct Steals
{
    std::uint64_t bytes = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

/** The block-by-block bulk transfer, as DramDevice once looped it. */
Cycle
referenceBulk(DramDevice &dev, Addr addr, std::uint64_t bytes,
              AccessType type, Cycle when, Steals &steals)
{
    const Cycle burst = dev.memToCpu(dev.timings().burstCycles());
    Cycle done = when;
    std::uint32_t k = 0;
    for (std::uint64_t off = 0; off < bytes; off += 64, ++k) {
        Addr a = addr + off;
        if (a >= dev.capacity())
            a %= dev.capacity();
        if (k % DramDevice::demandImpactStride == 0) {
            done = dev.access(a, type, when);
        } else {
            steals.bytes += 64;
            if (type == AccessType::Read)
                ++steals.reads;
            else
                ++steals.writes;
            done += burst;
        }
    }
    return done;
}

} // namespace

TEST(BulkTransferKernel, MatchesPerBlockReference)
{
    for (bool faulty : {false, true}) {
        DramTimings t = stackedDramConfig();
        t.capacity = 1_MiB;
        DramDevice dev(t);
        DramDevice ref(t);
        FaultConfig fc;
        fc.enabled = true;
        fc.seed = 5;
        fc.transientFlipRate = 0.02;
        fc.doubleFlipFraction = 0.2;
        fc.spikeRate = 0.3;
        fc.spikeWindowCycles = 5'000;
        FaultInjector dev_faults(fc, t.capacity, 2_KiB);
        FaultInjector ref_faults(fc, t.capacity, 2_KiB);
        if (faulty) {
            dev.setFaultInjector(&dev_faults, MemNode::Stacked);
            ref.setFaultInjector(&ref_faults, MemNode::Stacked);
        }
        Steals steals;
        Rng rng(faulty ? 12 : 11);
        Cycle when = 0;
        const std::uint64_t sizes[] = {0,    1,    63,   64,   65,
                                       100,  511,  512,  513,  2047,
                                       2048, 2049, 4103, 8192};
        for (int i = 0; i < 20'000; ++i) {
            when += rng.below(400);
            const std::uint64_t bytes =
                rng.chance(0.8) ? sizes[rng.below(std::size(sizes))]
                                : rng.below(6'000);
            // Every fourth start lies within 8 KiB of the end, so the
            // transfer wraps; some start past the end altogether.
            const Addr addr = rng.below(4) == 0
                                  ? t.capacity - 4_KiB + rng.below(8_KiB)
                                  : rng.below(t.capacity);
            const AccessType type =
                rng.chance(0.5) ? AccessType::Read : AccessType::Write;
            ASSERT_EQ(dev.bulkTransfer(addr, bytes, type, when),
                      referenceBulk(ref, addr, bytes, type, when, steals))
                << "transfer " << i;
            // Demand traffic in between sees the same bank/bus state.
            const Addr demand = rng.below(t.capacity) & ~Addr{63};
            ASSERT_EQ(dev.access(demand, AccessType::Read, when),
                      ref.access(demand, AccessType::Read, when))
                << "access " << i;
        }
        const DramStats &a = dev.stats();
        const DramStats &b = ref.stats();
        EXPECT_EQ(a.reads, b.reads + steals.reads);
        EXPECT_EQ(a.writes, b.writes + steals.writes);
        EXPECT_EQ(a.bytesTransferred, b.bytesTransferred + steals.bytes);
        EXPECT_EQ(a.rowHits, b.rowHits);
        EXPECT_EQ(a.rowMisses, b.rowMisses);
        EXPECT_EQ(a.rowConflicts, b.rowConflicts);
        EXPECT_EQ(a.refreshStalls, b.refreshStalls);
        EXPECT_EQ(a.eccCorrected, b.eccCorrected);
        EXPECT_EQ(a.eccUncorrectable, b.eccUncorrectable);
        EXPECT_EQ(a.spikeDelays, b.spikeDelays);
        EXPECT_EQ(a.readLatencySum, b.readLatencySum);
        if (faulty) {
            EXPECT_GT(a.eccCorrected, 0u);
            EXPECT_GT(a.spikeDelays, 0u);
        }
    }
}

namespace
{

/** @p tenths of the 24 GiB machine at scale 512. */
AppProfile
hintApp(std::uint64_t tenths)
{
    AppProfile p;
    p.name = "hintapp";
    p.llcMpki = 25.0;
    p.footprintBytes = 24 * 1_GiB / 512 * tenths / 10;
    return p;
}

void
expectSameStats(System &a, System &b)
{
    const MemOrgStats &x = a.organization().stats();
    const MemOrgStats &y = b.organization().stats();
    EXPECT_EQ(x.reads, y.reads);
    EXPECT_EQ(x.writes, y.writes);
    EXPECT_EQ(x.stackedServed, y.stackedServed);
    EXPECT_EQ(x.offchipServed, y.offchipServed);
    EXPECT_EQ(x.swaps, y.swaps);
    EXPECT_EQ(x.fills, y.fills);
    EXPECT_EQ(x.writebacks, y.writebacks);
    EXPECT_EQ(x.isaMoves, y.isaMoves);
    EXPECT_EQ(x.latencySum, y.latencySum);
    const OsStats &o = a.os().stats();
    const OsStats &p = b.os().stats();
    EXPECT_EQ(o.minorFaults, p.minorFaults);
    EXPECT_EQ(o.majorFaults, p.majorFaults);
    EXPECT_EQ(o.swapOuts, p.swapOuts);
    EXPECT_EQ(o.isaAllocs, p.isaAllocs);
    EXPECT_EQ(o.isaFrees, p.isaFrees);
    EXPECT_EQ(a.offchipDevice().stats().bytesTransferred,
              b.offchipDevice().stats().bytesTransferred);
    EXPECT_EQ(a.offchipDevice().stats().readLatencySum,
              b.offchipDevice().stats().readLatencySum);
    if (a.stackedDevice()) {
        EXPECT_EQ(a.stackedDevice()->stats().bytesTransferred,
                  b.stackedDevice()->stats().bytesTransferred);
        EXPECT_EQ(a.stackedDevice()->stats().readLatencySum,
                  b.stackedDevice()->stats().readLatencySum);
    }
}

void
runHintTwins(Design design, const AppProfile &app)
{
    BenchOptions opts;
    opts.scale = 512;
    SystemConfig cfg = makeSystemConfig(design, opts);
    cfg.functionalData = true;
    System plain(cfg);
    System hinted(cfg);
    plain.loadRateWorkload(app);
    hinted.loadRateWorkload(app);
    const std::uint64_t footprint = app.copyFootprint(cfg.numCores);
    const Addr visible = hinted.organization().osVisibleBytes();

    Rng rng(static_cast<std::uint64_t>(design) * 31 + app.footprintBytes);
    Cycle when = 0;
    std::uint64_t value = 1;
    // Each process walks sequential runs with random restarts, so the
    // burst detectors see streaming as well as fresh bursts.
    std::vector<Addr> cursor(cfg.numCores, 0);
    for (int i = 0; i < 60'000; ++i) {
        const auto pid = static_cast<ProcId>(rng.below(cfg.numCores));
        Addr &va = cursor[pid];
        va = rng.chance(0.6) && va + 64 < footprint
                 ? va + 64
                 : rng.below(footprint) & ~Addr{63};
        const AccessType type =
            rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        when += rng.below(60);
        // Random hints, valid or not, then the hints System gives the
        // access about to run.
        for (std::uint64_t h = rng.below(4); h > 0; --h) {
            const auto other =
                static_cast<ProcId>(rng.below(cfg.numCores));
            const Addr any = rng.below(2 * footprint);
            hinted.os().prefetchPte(
                static_cast<ProcId>(rng.below(cfg.numCores + 2)), any);
            if (const auto phys = hinted.os().peekTranslate(other, any))
                hinted.organization().prefetch(*phys);
            hinted.organization().prefetch(rng.below(2 * visible));
        }
        hinted.os().prefetchPte(pid, va);
        if (const auto phys = hinted.os().peekTranslate(pid, va))
            hinted.organization().prefetch(*phys);
        const Translation ta = plain.os().translate(pid, va, type, when);
        const Translation tb = hinted.os().translate(pid, va, type, when);
        ASSERT_EQ(ta.phys, tb.phys) << i;
        ASSERT_EQ(ta.stall, tb.stall) << i;
        const MemAccessResult ra =
            plain.organization().access(ta.phys, type, when);
        const MemAccessResult rb =
            hinted.organization().access(tb.phys, type, when);
        ASSERT_EQ(ra.done, rb.done) << i;
        ASSERT_EQ(ra.stackedHit, rb.stackedHit) << i;
        if (type == AccessType::Write) {
            plain.organization().functionalWrite(ta.phys, value);
            hinted.organization().functionalWrite(tb.phys, value);
            ++value;
        } else {
            ASSERT_EQ(plain.organization().functionalRead(ta.phys),
                      hinted.organization().functionalRead(tb.phys))
                << i;
        }
    }
    expectSameStats(plain, hinted);
    EXPECT_GT(plain.organization().stats().writes, 0u);
}
} // namespace

class HintTwins : public ::testing::TestWithParam<Design>
{
};

/**
 * Two identical Systems take the same translations, accesses and
 * functional stores; one also gets random prefetch hints and
 * side-effect-free translations, valid or not, between them, plus the
 * hints System gives each access before it runs. Every outcome, every
 * loaded value and every counter must match. Footprints: half the
 * machine (most Chameleon groups in cache mode) and 0.9 of it (over
 * Alloy's 20 GiB, so it pages).
 */
TEST_P(HintTwins, HintsChangeNothing)
{
    for (std::uint64_t tenths : {5, 9}) {
        SCOPED_TRACE(tenths);
        runHintTwins(GetParam(), hintApp(tenths));
    }
}


INSTANTIATE_TEST_SUITE_P(
    EveryDesign, HintTwins,
    ::testing::Values(Design::FlatDdr, Design::NumaFlat, Design::Alloy,
                      Design::Pom, Design::Chameleon,
                      Design::ChameleonOpt, Design::Polymorphic),
    [](const ::testing::TestParamInfo<Design> &info) {
        std::string s = designLabel(info.param);
        for (auto &c : s)
            if (c == '-')
                c = '_';
        return s;
    });
