/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot structures: SRRT
 * lookups through the Chameleon access path, ISA transition handling,
 * raw DRAM-device access computation, and the synthetic stream
 * generator.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/chameleon_opt.hh"
#include "dram/dram_device.hh"
#include "obs/trace_sink.hh"
#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "workloads/profile.hh"
#include "workloads/stream_gen.hh"

using namespace chameleon;

namespace
{

struct Rig
{
    std::unique_ptr<DramDevice> stacked;
    std::unique_ptr<DramDevice> offchip;
    std::unique_ptr<ChameleonOptMemory> org;

    Rig()
    {
        DramTimings st = stackedDramConfig();
        st.capacity = 16_MiB;
        DramTimings ot = offchipDramConfig();
        ot.capacity = 80_MiB;
        stacked = std::make_unique<DramDevice>(st);
        offchip = std::make_unique<DramDevice>(ot);
        org = std::make_unique<ChameleonOptMemory>(stacked.get(),
                                                   offchip.get());
    }
};

} // namespace

static void
BM_DramAccess(benchmark::State &state)
{
    DramTimings t = offchipDramConfig();
    t.capacity = 64_MiB;
    DramDevice dev(t);
    Rng rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dev.access(rng.below(64_MiB / 64) * 64, AccessType::Read,
                       now += 4));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

static void
BM_ChameleonAccess(benchmark::State &state)
{
    Rig rig;
    Rng rng(2);
    Cycle now = 0;
    const std::uint64_t blocks = rig.org->osVisibleBytes() / 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rig.org->access(rng.below(blocks) * 64, AccessType::Read,
                            now += 4));
    }
    state.SetItemsProcessed(state.iterations());
    // The CSV reporter requires identical counter sets across every
    // benchmark in a report, so the untraced twin carries the counter
    // too (no sink attached, hence zero).
    state.counters["trace_events"] = 0;
}
BENCHMARK(BM_ChameleonAccess);

/**
 * BM_ChameleonAccess with a live TraceSink attached, running the
 * identical access mix. Uniform reads to OS-free segments reach no
 * emit site, so the recording load is synthesized: one event plus one
 * counter sample every 256 accesses, well above the per-access event
 * rate full figure sweeps show. The delta against the untraced twin
 * therefore upper-bounds what the disabled instrumentation (a
 * null-pointer branch per site) can cost, which is what
 * scripts/bench_smoke.sh's 2% overhead guard enforces.
 */
static void
BM_ChameleonAccessTraced(benchmark::State &state)
{
    Rig rig;
    TraceSink sink;
    rig.org->setTraceSink(&sink);
    Rng rng(2);
    Cycle now = 0;
    std::uint64_t n = 0;
    const std::uint64_t blocks = rig.org->osVisibleBytes() / 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rig.org->access(rng.below(blocks) * 64, AccessType::Read,
                            now += 4));
        if ((++n & 255u) == 0) {
            sink.record(now, TraceKind::HotSwap, 0, 1, 2);
            sink.recordCounter(now, TraceKind::CounterHitRate, 0.5);
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["trace_events"] = static_cast<double>(
        sink.stats().recorded);
}
BENCHMARK(BM_ChameleonAccessTraced);

/** Raw sink recording throughput (events/s on one thread). */
static void
BM_TraceSinkRecord(benchmark::State &state)
{
    TraceSink sink;
    Cycle now = 0;
    for (auto _ : state)
        sink.record(now += 4, TraceKind::HotSwap, 1, 2, 3);
    benchmark::DoNotOptimize(sink.stats().recorded);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSinkRecord);

static void
BM_IsaAllocFreeCycle(benchmark::State &state)
{
    Rig rig;
    const std::uint64_t segs = rig.org->osVisibleBytes() / 2048;
    std::uint64_t s = 0;
    Cycle now = 0;
    for (auto _ : state) {
        rig.org->isaAlloc(s * 2048, now += 2);
        rig.org->isaFree(s * 2048, now += 2);
        s = (s + 7919) % segs;
    }
    state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_IsaAllocFreeCycle);

namespace
{

/** Block-store key mix matching the functional layer: 64B-aligned
 *  device locations, some offset into the off-chip range. */
std::vector<Addr>
blockStoreKeys(std::size_t n)
{
    Rng rng(7);
    std::vector<Addr> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Addr a = rng.below(n * 4) * 64;
        if (i % 3 == 0)
            a += 1ull << 48; // off-chip location encoding
        keys.push_back(a);
    }
    return keys;
}

} // namespace

/** Baseline: the sparse block store as std::unordered_map (what the
 *  functional layer used before FlatMap). */
static void
BM_BlockStoreUnorderedMap(benchmark::State &state)
{
    const auto keys = blockStoreKeys(1 << 18);
    std::unordered_map<Addr, std::uint64_t> map;
    map.reserve(keys.size());
    for (Addr k : keys)
        map[k] = k;
    Rng rng(11);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        auto it = map.find(keys[rng.below(keys.size())]);
        if (it != map.end())
            sum += it->second;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockStoreUnorderedMap);

/** The replacement: FlatMap lookups on the same key mix. */
static void
BM_BlockStoreFlatMap(benchmark::State &state)
{
    const auto keys = blockStoreKeys(1 << 18);
    FlatMap<Addr, std::uint64_t> map;
    map.reserve(keys.size());
    for (Addr k : keys)
        map[k] = k;
    Rng rng(11);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        auto it = map.find(keys[rng.below(keys.size())]);
        if (it != map.end())
            sum += it->second;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockStoreFlatMap);

/**
 * Fig 18-style miniature sweep (3 designs x 3 apps) through the
 * SweepRunner; Arg = --jobs. Comparing /1 against /N is the
 * wall-clock speedup the parallel engine buys on this machine.
 */
static void
BM_Fig18StyleSweep(benchmark::State &state)
{
    setQuiet(true); // sweep chatter would swamp the bench output
    BenchOptions opts;
    opts.scale = 512;
    opts.instrPerCore = 20'000;
    opts.minRefsPerCore = 2'000;
    opts.jobs = static_cast<unsigned>(state.range(0));

    const auto suite = tableTwoSuite(opts.scale);
    const Design designs[] = {Design::FlatDdr, Design::Pom,
                              Design::ChameleonOpt};
    const char *names[] = {"lbm", "mcf", "stream"};

    for (auto _ : state) {
        SweepRunner runner(opts);
        for (Design d : designs) {
            for (const char *n : names) {
                const AppProfile &app = findProfile(suite, n);
                SystemConfig cfg = makeSystemConfig(d, opts);
                runner.submit(designLabel(d), n, [cfg, app, opts] {
                    return runRateWorkload(cfg, app, opts);
                });
            }
        }
        const auto res = runner.collectResults();
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(state.iterations() * 9);
}
BENCHMARK(BM_Fig18StyleSweep)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(0) // 0 = auto: one worker per hardware thread
    ->Iterations(2);

/**
 * Stream generation per app. lbm's 32-block sequential runs almost
 * never reach the run-start path (hot/cold pick, Zipf rank, run-length
 * draw); mcf's 1.5-block runs take it on about two references in three.
 */
static void
BM_StreamGen(benchmark::State &state, const char *app)
{
    const auto suite = tableTwoSuite(64);
    SyntheticStream s(findProfile(suite, app), 16_MiB, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.next().vaddr);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_StreamGen, lbm, "lbm");
BENCHMARK_CAPTURE(BM_StreamGen, mcf, "mcf");

BENCHMARK_MAIN();
