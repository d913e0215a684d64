/**
 * @file
 * Table I — simulated baseline configuration. Prints the machine the
 * other benches instantiate and self-checks the derived quantities
 * (peak bandwidths, burst lengths, capacities). The SRAM cache rows
 * are the paper's Table I constants; the simulator models post-LLC
 * traffic only.
 */

#include <cstdio>

#include "cpu/core_model.hh"
#include "common/stats.hh"
#include "dram/dram_device.hh"
#include "sim/experiment.hh"

using namespace chameleon;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    std::printf("=== Table I: simulated baseline configuration ===\n\n");

    std::printf("Cores            12 @ 3.6GHz, trace-driven, "
                "MLP window %u\n", CoreConfig().maxOutstanding);
    std::printf("L1 (I/D)         32KB, 4-way, 64B lines\n");
    std::printf("L2 (private)     256KB, 8-way, 64B lines\n");
    std::printf("L3 (shared)      12MB, 16-way, 64B lines\n\n");

    auto show = [&](const DramTimings &t) {
        DramDevice dev(t);
        std::printf("%-8s  bus %.1fGHz (DDR %.1f GT/s), %u bits/ch, "
                    "%u ch x %u ranks x %u banks\n",
                    t.name, t.busFreqGhz, 2 * t.busFreqGhz, t.busBits,
                    t.channels, t.ranksPerChannel, t.banksPerRank);
        std::printf("          tCAS-tRCD-tRP-tRAS %u-%u-%u-%u, "
                    "tRFC %.0fns, capacity %lluMiB (scaled)\n",
                    t.tCas, t.tRcd, t.tRp, t.tRas, t.tRfcNs,
                    static_cast<unsigned long long>(t.capacity >> 20));
        std::printf("          peak %.1f GB/s, 64B burst %u mem-cyc, "
                    "idle hit %llu cpu-cyc\n",
                    t.peakBandwidth() / 1e9, t.burstCycles(),
                    static_cast<unsigned long long>(
                        dev.idleHitLatency()));
    };
    show(stackedDramConfig(opts.scale));
    show(offchipDramConfig(opts.scale,
                           opts.offchipFullGiB * 1_GiB));

    std::printf("\nOS                mini-OS, 4KiB pages + 2MiB THP, "
                "page-fault latency %llu cycles (SSD)\n",
                static_cast<unsigned long long>(
                    SystemConfig().majorFaultLatency));
    std::printf("Segments          %llu B, swap threshold %u "
                "(per-access competing counter)\n",
                static_cast<unsigned long long>(
                    PomConfig().segmentBytes),
                PomConfig().swapThreshold);

    // Self-checks: fail loudly if the derived numbers drift.
    const DramTimings s = stackedDramConfig();
    const DramTimings o = offchipDramConfig();
    if (s.peakBandwidth() / o.peakBandwidth() < 3.9 ||
        s.peakBandwidth() / o.peakBandwidth() > 4.1)
        fatal("Table I check: stacked:off-chip bandwidth ratio "
              "must be 4x");
    if (s.capacity * 5 != o.capacity)
        fatal("Table I check: capacity ratio must be 1:5");
    std::printf("\nself-checks passed: bandwidth ratio 4.0x, "
                "capacity ratio 1:5\n");
    return 0;
}
