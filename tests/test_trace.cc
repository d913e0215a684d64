/**
 * @file
 * Observability-layer tests (ctest -L obs): trace-sink ring
 * semantics, ThreadRings sink isolation, cross-thread event
 * ordering, Chrome-trace JSON round-trips through the
 * reader/analyzer, a checked-in golden trace compared
 * event-for-event, the metrics registry, and an end-to-end
 * fault-injected System run whose exported trace must carry the mode
 * switch / swap / ISA / retirement story with monotonic timestamps.
 *
 * Regenerate the golden trace after an intentional format change:
 *   CHAM_GOLDEN_REGEN=1 ./tests/test_trace
 * then commit tests/golden/trace_golden.json with the change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "common/timeline.hh"
#include "obs/metrics_registry.hh"
#include "obs/trace_reader.hh"
#include "obs/trace_sink.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace chameleon;

#ifndef CHAM_GOLDEN_DIR
#error "build must define CHAM_GOLDEN_DIR"
#endif

namespace
{

/** Record a deterministic little scenario into @p sink. */
void
recordScenario(TraceSink &sink)
{
    sink.record(100, TraceKind::IsaAlloc, 0x4000);
    sink.record(220, TraceKind::ModeSwitch, 7, 0,
                static_cast<std::uint64_t>(ModeSwitchTrigger::IsaAlloc));
    sink.record(350, TraceKind::HotSwap, 7, 1, 3);
    sink.record(500, TraceKind::MajorFault, 2, 0x1234);
    sink.record(720, TraceKind::EccCorrected, 0, 0x8840);
    sink.record(900, TraceKind::SegmentRetired, 7);
    sink.recordCounter(1000, TraceKind::CounterHitRate, 0.75);
    sink.recordCounter(1000, TraceKind::CounterFootprint, 1.5e6);
}

std::string
goldenPath()
{
    return std::string(CHAM_GOLDEN_DIR) + "/trace_golden.json";
}

} // namespace

TEST(TraceEvent, KindTableIsConsistent)
{
    std::set<std::string> names;
    for (std::size_t k = 0; k < traceKindCount; ++k) {
        const auto kind = static_cast<TraceKind>(k);
        const char *name = traceKindName(kind);
        ASSERT_NE(name, nullptr);
        EXPECT_FALSE(std::string(name).empty());
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate kind name " << name;
        const char *cat = traceCategoryName(traceCategoryOf(kind));
        ASSERT_NE(cat, nullptr);
        EXPECT_FALSE(std::string(cat).empty());
        EXPECT_EQ(traceKindIsCounter(kind),
                  traceCategoryOf(kind) == TraceCategory::Counter);
        // Arg names must be a prefix: no gaps like (a0, null, a2).
        bool seen_null = false;
        for (std::size_t i = 0; i < 3; ++i) {
            if (traceArgName(kind, i) == nullptr)
                seen_null = true;
            else
                EXPECT_FALSE(seen_null)
                    << name << " has a gap in its arg names";
        }
    }
}

TEST(TraceEvent, CounterValueRoundTrips)
{
    for (double v : {0.0, 1.0, -3.25, 0.6180339887, 1.5e18, -0.0})
        EXPECT_EQ(traceDecodeValue(traceEncodeValue(v)), v);
}

TEST(TraceSink, RingWraparoundCountsDropsNotSilent)
{
    TraceSinkConfig cfg;
    cfg.ringEvents = 16;
    TraceSink sink(cfg);
    for (std::uint64_t i = 0; i < 100; ++i)
        sink.record(i, TraceKind::IsaAlloc, i);

    const RingStats st = sink.stats();
    EXPECT_EQ(st.recorded, 100u);
    EXPECT_EQ(st.dropped, 84u);
    EXPECT_EQ(st.retained, 16u);

    // Overwrite-oldest: the survivors are exactly the last 16 events.
    const auto events = sink.sortedEvents();
    ASSERT_EQ(events.size(), 16u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].when, 84 + i);
        EXPECT_EQ(events[i].arg0, 84 + i);
    }

    // The exporter reports the loss in otherData.
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(loadChromeTrace(sink.toChromeJson(), parsed, error))
        << error;
    EXPECT_EQ(parsed.recorded, 100u);
    EXPECT_EQ(parsed.dropped, 84u);
    EXPECT_EQ(parsed.events.size(), 16u);
}

TEST(TraceSink, CrossThreadEventsMergeInTimestampOrder)
{
    TraceSink sink;
    constexpr std::uint64_t perThread = 2000;
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < 3; ++t) {
        threads.emplace_back([&sink, t] {
            for (std::uint64_t i = 0; i < perThread; ++i)
                sink.record(i * 3 + t, TraceKind::IsaAlloc, t, i);
        });
    }
    for (auto &th : threads)
        th.join();

    const RingStats st = sink.stats();
    EXPECT_EQ(st.recorded, 3 * perThread);
    EXPECT_EQ(st.dropped, 0u);

    const auto events = sink.sortedEvents();
    ASSERT_EQ(events.size(), 3 * perThread);
    std::uint64_t seen[3] = {0, 0, 0};
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i > 0) {
            EXPECT_GE(events[i].when, events[i - 1].when);
        }
        // The (when = 3i + t) encoding makes the global order total:
        // every event lands in its exact slot.
        EXPECT_EQ(events[i].when, i);
        ++seen[events[i].arg0];
    }
    for (std::uint64_t t = 0; t < 3; ++t)
        EXPECT_EQ(seen[t], perThread);
}

// One thread interleaving two live sinks of the same type misses the
// thread-local fast path on every switch; each record must still land
// in its own sink's ring.
TEST(ThreadRings, AlternatingSinksKeepSeparateRings)
{
    TraceSinkConfig small;
    small.ringEvents = 8;
    TraceSink a(small);
    TraceSink b;
    for (std::uint64_t i = 0; i < 20; ++i) {
        a.record(i, TraceKind::IsaAlloc, 1);
        b.record(i, TraceKind::IsaAlloc, 2);
    }

    const RingStats sa = a.stats();
    EXPECT_EQ(sa.recorded, 20u);
    EXPECT_EQ(sa.dropped, 12u);
    EXPECT_EQ(sa.retained, 8u);
    const RingStats sb = b.stats();
    EXPECT_EQ(sb.recorded, 20u);
    EXPECT_EQ(sb.dropped, 0u);
    EXPECT_EQ(sb.retained, 20u);

    const auto ea = a.sortedEvents();
    ASSERT_EQ(ea.size(), 8u);
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].when, 12 + i);
        EXPECT_EQ(ea[i].arg0, 1u);
    }
    for (const TraceEvent &ev : b.sortedEvents())
        EXPECT_EQ(ev.arg0, 2u);
}

// A ring set built in the storage of a destroyed one (the same
// address, by placement new) must not inherit its cached ring: this
// is why the thread-local cache is keyed on an id.
TEST(ThreadRings, ReplacementAtSameAddressStartsEmpty)
{
    alignas(ThreadRings<int>) unsigned char storage[sizeof(
        ThreadRings<int>)];
    auto *rings = new (storage) ThreadRings<int>(4);
    rings->push(1);
    rings->push(2);
    EXPECT_EQ(rings->stats().recorded, 2u);
    rings->~ThreadRings();

    rings = new (storage) ThreadRings<int>(4);
    EXPECT_EQ(rings->stats().recorded, 0u);
    rings->push(3);
    const RingStats st = rings->stats();
    EXPECT_EQ(st.recorded, 1u);
    EXPECT_EQ(st.retained, 1u);
    std::vector<int> kept;
    rings->forEachRetained(
        [&](std::size_t, int v) { kept.push_back(v); });
    EXPECT_EQ(kept, std::vector<int>{3});
    rings->~ThreadRings();
}

TEST(TraceSink, ChromeJsonRoundTripsThroughReader)
{
    TraceSink sink;
    recordScenario(sink);

    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(loadChromeTrace(sink.toChromeJson(), parsed, error))
        << error;
    ASSERT_EQ(parsed.events.size(), 8u);
    EXPECT_EQ(parsed.recorded, 8u);
    EXPECT_EQ(parsed.dropped, 0u);

    // Names and categories survive, in timestamp order.
    EXPECT_EQ(parsed.events[0].name, "isa_alloc");
    EXPECT_EQ(parsed.events[0].cat, "isa");
    EXPECT_EQ(parsed.events[1].name, "mode_switch");
    EXPECT_EQ(parsed.events[1].cat, "mode");
    EXPECT_EQ(parsed.events[1].arg("group"), 7.0);
    EXPECT_EQ(parsed.events[2].name, "hot_swap");
    EXPECT_EQ(parsed.events[5].name, "segment_retired");

    // Counter samples become "ph":"C" with their decoded value.
    EXPECT_EQ(parsed.events[6].ph, "C");
    EXPECT_EQ(parsed.events[6].name, "hit_rate");
    EXPECT_DOUBLE_EQ(parsed.events[6].arg("value"), 0.75);
    EXPECT_EQ(parsed.events[7].name, "footprint_bytes");
    EXPECT_DOUBLE_EQ(parsed.events[7].arg("value"), 1.5e6);

    // Timestamps are microseconds at the configured clock (the
    // exporter keeps millisecond-of-a-microsecond resolution) and
    // monotonic.
    EXPECT_NEAR(parsed.events[0].ts, 100.0 / 3600.0, 5e-4);
    for (std::size_t i = 1; i < parsed.events.size(); ++i)
        EXPECT_GE(parsed.events[i].ts, parsed.events[i - 1].ts);

    // The analyzer sees every category the scenario touched.
    const auto stats = analyzeTrace(parsed);
    std::uint64_t total = 0;
    std::set<std::string> cats;
    for (const auto &s : stats) {
        total += s.events;
        cats.insert(s.category);
    }
    EXPECT_EQ(total, 8u);
    for (const char *want :
         {"isa", "mode", "swap", "os", "fault", "counter"})
        EXPECT_TRUE(cats.count(want)) << want;
    EXPECT_FALSE(
        formatTraceReport(parsed, stats).find("events: 8") ==
        std::string::npos);
}

TEST(TraceSink, GoldenTraceMatchesEventForEvent)
{
    TraceSink sink;
    recordScenario(sink);
    const std::string json = sink.toChromeJson();

    if (std::getenv("CHAM_GOLDEN_REGEN")) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out.good());
        out << json;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    ParsedTrace now, golden;
    std::string error;
    ASSERT_TRUE(loadChromeTrace(json, now, error)) << error;
    ASSERT_TRUE(loadChromeTraceFile(goldenPath(), golden, error))
        << error;

    EXPECT_EQ(now.recorded, golden.recorded);
    EXPECT_EQ(now.dropped, golden.dropped);
    ASSERT_EQ(now.events.size(), golden.events.size());
    for (std::size_t i = 0; i < now.events.size(); ++i) {
        const ParsedTraceEvent &a = now.events[i];
        const ParsedTraceEvent &b = golden.events[i];
        EXPECT_EQ(a.name, b.name) << "event " << i;
        EXPECT_EQ(a.cat, b.cat) << "event " << i;
        EXPECT_EQ(a.ph, b.ph) << "event " << i;
        EXPECT_DOUBLE_EQ(a.ts, b.ts) << "event " << i;
        ASSERT_EQ(a.args.size(), b.args.size()) << "event " << i;
        for (std::size_t j = 0; j < a.args.size(); ++j) {
            EXPECT_EQ(a.args[j].first, b.args[j].first)
                << "event " << i << " arg " << j;
            EXPECT_DOUBLE_EQ(a.args[j].second, b.args[j].second)
                << "event " << i << " arg " << j;
        }
    }
}

TEST(TraceSink, DumpRecentForGroupShowsGroupHistory)
{
    TraceSink sink;
    for (std::uint64_t i = 0; i < 10; ++i)
        sink.record(i, TraceKind::HotSwap, /*group=*/i % 2, 0, 1);
    sink.record(50, TraceKind::SegmentRetired, /*group=*/1);

    testing::internal::CaptureStderr();
    sink.dumpRecentForGroup(1);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("segment_retired"), std::string::npos) << err;
    EXPECT_NE(err.find("hot_swap"), std::string::npos) << err;
}

TEST(TraceSink, PerCellPathsAreSanitizedAndUnique)
{
    EXPECT_EQ(perCellObsPath("out/t.json", 3, "chameleon-opt",
                             "bwaves#1 x"),
              "out/t.cell3.chameleon-opt.bwaves-1-x.json");
    // No extension: the tag is appended.
    EXPECT_EQ(perCellObsPath("trace", 0, "pom", "lbm"),
              "trace.cell0.pom.lbm");
    // A dot in a directory name is not an extension.
    EXPECT_EQ(perCellObsPath("out.d/trace", 1, "pom", "lbm"),
              "out.d/trace.cell1.pom.lbm");
}

TEST(Stats, MeanTrackerHandlesNegativeOnlyStreams)
{
    // Regression: min/max used sentinel 0.0, so a stream of strictly
    // negative samples reported max() == 0 (and strictly positive
    // ones min() == 0).
    MeanTracker t;
    t.sample(-5.0);
    EXPECT_EQ(t.min(), -5.0);
    EXPECT_EQ(t.max(), -5.0);
    t.sample(-2.0);
    t.sample(-9.0);
    EXPECT_EQ(t.min(), -9.0);
    EXPECT_EQ(t.max(), -2.0);

    MeanTracker p;
    p.sample(3.0);
    p.sample(8.0);
    EXPECT_EQ(p.min(), 3.0);
    EXPECT_EQ(p.max(), 8.0);

    p.reset();
    EXPECT_EQ(p.min(), 0.0);
    EXPECT_EQ(p.max(), 0.0);
    p.sample(-1.5);
    EXPECT_EQ(p.min(), -1.5);
    EXPECT_EQ(p.max(), -1.5);
}

TEST(Stats, TimelineAndHistogramExportJson)
{
    Timeline tl("hit_rate");
    tl.sample(0, 0.25);
    tl.sample(1000, 0.5);

    std::string error;
    const JsonValue v = parseJson(tl.toJson(), error);
    ASSERT_TRUE(v.isObject()) << error;
    EXPECT_EQ(v.get("name")->string, "hit_rate");
    const JsonValue *pts = v.get("points");
    ASSERT_NE(pts, nullptr);
    ASSERT_EQ(pts->array.size(), 2u);
    EXPECT_EQ(pts->array[1].get("t")->number, 1000.0);
    EXPECT_EQ(pts->array[1].get("v")->number, 0.5);

    Histogram h(10.0, 4);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(99.0); // lands in the overflow bucket
    const JsonValue hv = parseJson(h.toJson(), error);
    ASSERT_TRUE(hv.isObject()) << error;
    EXPECT_EQ(hv.get("bucket_width")->number, 10.0);
    EXPECT_EQ(hv.get("samples")->number, 3.0);
    ASSERT_EQ(hv.get("counts")->array.size(), 5u); // 4 + overflow
    EXPECT_EQ(hv.get("counts")->array[0].number, 1.0);
    EXPECT_EQ(hv.get("counts")->array[1].number, 1.0);
    EXPECT_EQ(hv.get("counts")->array[4].number, 1.0);
}

TEST(MetricsRegistry, SnapshotsBuildSeries)
{
    std::uint64_t faults = 0;
    double level = 0.0;
    MetricsRegistry r;
    r.registerCounter("faults", &faults);
    r.registerMetric("level", MetricKind::Gauge,
                     [&level] { return level; });

    ASSERT_TRUE(r.has("faults"));
    EXPECT_FALSE(r.has("nope"));
    EXPECT_EQ(r.value("faults"), 0.0);

    r.snapshot(100);
    faults = 7;
    level = 0.5;
    r.snapshot(200);
    EXPECT_EQ(r.snapshots(), 2u);
    EXPECT_EQ(r.value("faults"), 7.0);

    const std::string csv = r.toCsv();
    EXPECT_NE(csv.find("cycle,faults,level"), std::string::npos) << csv;
    EXPECT_NE(csv.find("200,7,0.5"), std::string::npos) << csv;

    std::string error;
    const JsonValue v = parseJson(r.toJson(), error);
    ASSERT_TRUE(v.isObject()) << error;
    const JsonValue *metrics = v.get("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->array.size(), 2u);
    EXPECT_EQ(metrics->array[0].get("name")->string, "faults");
    EXPECT_EQ(
        metrics->array[0].get("points")->array[1].get("v")->number,
        7.0);
}

namespace
{

/** Small fault-heavy ChameleonOpt run with an in-memory sink. */
SystemConfig
tracedFaultConfig()
{
    BenchOptions opts;
    opts.scale = 512;
    SystemConfig cfg = makeSystemConfig(Design::ChameleonOpt, opts);
    cfg.numCores = 4;
    cfg.faults.enabled = true;
    cfg.faults.seed = 7;
    cfg.faults.transientFlipRate = 1e-3;
    cfg.faults.doubleFlipFraction = 0.02;
    cfg.faults.stuckSegmentFraction = 1e-2;
    cfg.faults.srrtCorruptionRate = 1e-4;
    cfg.faults.srrtUncorrectableFraction = 0.05;
    cfg.faults.spikeRate = 0.25;
    cfg.faults.spikeWindowCycles = 2'000;
    cfg.faults.retireThreshold = 2;
    cfg.obs.forceTrace = true;
    cfg.obs.metricsIntervalCycles = 50'000;
    return cfg;
}

AppProfile
tracedApp()
{
    AppProfile p;
    p.name = "traceapp";
    p.llcMpki = 25.0;
    p.footprintBytes = 18_GiB / 512;
    p.hotFraction = 0.05;
    p.hotProbability = 0.9;
    p.seqRunBlocks = 16.0;
    p.writeFraction = 0.3;
    return p;
}

} // namespace

TEST(SystemTrace, FaultRunExportsFullStoryWithMonotonicTimestamps)
{
    System sys(tracedFaultConfig());
    sys.loadRateWorkload(tracedApp());
    const RunResult res = sys.run(40'000, 20'000);

    ASSERT_NE(sys.traceSink(), nullptr);
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(
        loadChromeTrace(sys.traceSink()->toChromeJson(), parsed, error))
        << error;
    ASSERT_FALSE(parsed.events.empty());

    std::set<std::string> names;
    double prev_ts = 0.0;
    for (const auto &e : parsed.events) {
        EXPECT_GE(e.ts, prev_ts);
        prev_ts = e.ts;
        names.insert(e.name);
    }

    // The acceptance story: mode switches, swaps, ISA notifications
    // and the retirement pipeline must all appear in one trace.
    for (const char *want :
         {"mode_switch", "hot_swap", "isa_alloc", "retire_request",
          "segment_retired", "frame_retired", "isa_retire",
          "ecc_corrected", "hit_rate"})
        EXPECT_TRUE(names.count(want)) << "missing event " << want;
    EXPECT_GT(res.retiredSegments, 0u);

    // Metric snapshots ran periodically and agree with RunResult
    // where the whole run is the measured region's superset.
    MetricsRegistry &reg = sys.metricsRegistry();
    EXPECT_GT(reg.snapshots(), 2u);
    EXPECT_EQ(static_cast<std::uint64_t>(reg.value("retired_segments")),
              res.retiredSegments);
    EXPECT_GE(reg.value("fault_flips_injected"), 1.0);
}

TEST(SystemTrace, TraceAndMetricsFilesAreWrittenAndLoadable)
{
    SystemConfig cfg = tracedFaultConfig();
    const std::string dir = testing::TempDir();
    cfg.obs.tracePath = dir + "/cham_trace.json";
    cfg.obs.metricsPath = dir + "/cham_metrics.json";

    System sys(cfg);
    sys.loadRateWorkload(tracedApp());
    sys.run(20'000, 5'000);

    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(loadChromeTraceFile(cfg.obs.tracePath, parsed, error))
        << error;
    EXPECT_FALSE(parsed.events.empty());

    std::ifstream in(cfg.obs.metricsPath);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const JsonValue v = parseJson(text, error);
    ASSERT_TRUE(v.isObject()) << error;
    ASSERT_NE(v.get("metrics"), nullptr);
    EXPECT_GE(v.get("metrics")->array.size(), 20u);

    std::remove(cfg.obs.tracePath.c_str());
    std::remove(cfg.obs.metricsPath.c_str());
}

TEST(SystemTrace, DisabledObservabilityAttachesNoSink)
{
    BenchOptions opts;
    opts.scale = 512;
    SystemConfig cfg = makeSystemConfig(Design::ChameleonOpt, opts);
    cfg.numCores = 2;
    System sys(cfg);
    EXPECT_EQ(sys.traceSink(), nullptr);
    // The registry still names every metric for end-of-run reads.
    EXPECT_TRUE(sys.metricsRegistry().has("hit_rate"));
    EXPECT_TRUE(sys.metricsRegistry().has("major_faults"));
}
