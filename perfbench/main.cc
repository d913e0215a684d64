/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload sim_hybrid|serve_cold|serve_hot --seed N
 *             --seconds S --trace 0|1 --expected TABLE
 *   perfbench --write-expected TABLE
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 runs the
 * per-layer ledger instead. Every run checks the simulated results
 * against TABLE (and the ledger against System::run), then prints an
 * info line (machine, build, sample counts) and, last, the result:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "expected.hh"
#include "serve_bench.hh"
#include "sim_jobs.hh"
#include "util.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace chameleon;
using namespace chameleon::serve;
using namespace perfbench;

namespace
{

// ---- workload inputs ---------------------------------------------------

/** The designs that move data, and the sim_hybrid apps (scale 64). */
constexpr Design kHybridDesigns[] = {Design::Alloy, Design::Pom,
                                     Design::Chameleon,
                                     Design::ChameleonOpt};
const char *const kHybridApps[] = {"mcf", "stream", "miniFE"};
/** Each sim_hybrid cell draws its simulation seed from 1..kSeedPool. */
constexpr std::uint64_t kSeedPool = 4;

/** Designs that move nothing, and the serve_cold apps. */
constexpr Design kFlatDesigns[] = {Design::FlatDdr, Design::NumaFlat};
const char *const kColdApps[] = {"stream", "mcf", "lbm", "hpccg",
                                 "leslie3d"};

/** serve_hot's fixed hot set: these designs x apps, seed 1. */
constexpr Design kHotDesigns[] = {Design::FlatDdr,   Design::NumaFlat,
                                  Design::Alloy,     Design::Pom,
                                  Design::Chameleon, Design::ChameleonOpt};
const char *const kHotApps[] = {"stream", "mcf"};

/** Requests per serve round. */
constexpr std::uint64_t kColdBatch = 240;
constexpr std::uint64_t kHotBatch = 6000;
/** serve_cold warm-up jobs per round (part of its set-up). */
constexpr std::uint64_t kColdWarmup = 8;
/** Minimum rounds (server set-ups) per serve run. */
constexpr int kMinRounds = 3;
/** Untraced/traced round pairs behind a serve ledger.overhead_ratio. */
constexpr int kOverheadPairs = 3;
/** serve_cold replies re-run fresh for the output check, per round. */
constexpr std::uint64_t kColdSamplesPerRound = 2;
/** References per job logged for the DRAM and core replays. */
constexpr std::size_t kMaxLog = 1u << 18;

/** A serving-sized job: scale 256, 20k instructions, 1k refs. */
SubmitRunRequest
servingRequest(Design design, const char *app, std::uint64_t seed)
{
    SubmitRunRequest req;
    req.design = designLabel(design);
    req.app = app;
    req.seed = seed;
    req.scale = 256;
    req.instrPerCore = 20'000;
    req.minRefsPerCore = 1'000;
    return req;
}

std::vector<JobSpec>
hybridGrid(std::uint64_t seed)
{
    std::vector<JobSpec> cells;
    for (Design d : kHybridDesigns)
        for (const char *app : kHybridApps) {
            JobSpec s;
            s.design = d;
            s.app = app;
            s.opts.jobs = 1;
            s.opts.seed = 1 + mix64(seed * 64 + cells.size()) % kSeedPool;
            cells.push_back(s);
        }
    std::vector<JobSpec> grid;
    for (std::size_t i : seededOrder(cells.size(), mix64(seed)))
        grid.push_back(cells[i]);
    return grid;
}

std::vector<SubmitRunRequest>
hotSet()
{
    std::vector<SubmitRunRequest> set;
    for (Design d : kHotDesigns)
        for (const char *app : kHotApps)
            set.push_back(servingRequest(d, app, 1));
    return set;
}

/**
 * serve_cold request @p i of round @p round: a (design, app) combo
 * drawn independently for every request, so which jobs meet in the
 * queue does not hang on the bench seed, with a simulation seed no
 * other request uses.
 */
struct ColdRequests
{
    std::uint64_t benchSeed;
    std::uint64_t round;
    bool warmup = false;

    SubmitRunRequest
    operator()(std::uint64_t i) const
    {
        static const std::vector<std::pair<Design, const char *>> combos =
            [] {
                std::vector<std::pair<Design, const char *>> c;
                for (Design d : kFlatDesigns)
                    for (const char *app : kColdApps)
                        c.push_back({d, app});
                return c;
            }();
        const std::uint64_t unique = (round << 32) | (warmup ? 1ull << 31
                                                             : 0) | i;
        const auto &[d, app] =
            combos[mix64(mix64(benchSeed) ^ unique) % combos.size()];
        return servingRequest(d, app, mix64(benchSeed) + unique);
    }
};

struct HotRequests
{
    std::uint64_t benchSeed;

    SubmitRunRequest
    operator()(std::uint64_t i) const
    {
        static const std::vector<SubmitRunRequest> set = hotSet();
        return set[mix64(mix64(benchSeed) + i) % set.size()];
    }
};

// ---- checks --------------------------------------------------------------

/** Check @p actual against the table row for @p key. */
void
checkExpected(const ExpectedTable &table, const std::string &key,
              JobStats actual, bool has_refs, Outcome &outcome)
{
    const JobStats *row = table.find(key);
    if (!row) {
        outcome.fail("no expected-table row for " + key);
        return;
    }
    if (!has_refs)
        actual.refsTotal = row->refsTotal;
    const std::string d = diffStats(*row, actual);
    if (!d.empty())
        outcome.fail(key + ": " + d + " differs from the expected table");
}

JobStats
statsOfReply(const JobResultReply &r)
{
    JobStats s;
    s.ipc = r.ipc;
    s.hitRate = r.hitRate;
    s.swaps = r.swaps;
    s.fills = r.fills;
    s.amal = r.amal;
    s.instructions = r.instructions;
    s.memRefs = r.memRefs;
    return s;
}

/** "" when the simulated fields of two replies are bit-identical. */
std::string
diffReplies(const JobResultReply &a, const JobResultReply &b)
{
    RunResult ra;
    RunResult rb;
    const auto fill = [](RunResult &r, const JobResultReply &p) {
        r.ipcGeoMean = p.ipc;
        r.stackedHitRate = p.hitRate;
        r.amal = p.amal;
        r.cacheModeFraction = p.cacheModeFraction;
        r.cpuUtilization = p.cpuUtilization;
        r.swaps = p.swaps;
        r.fills = p.fills;
        r.majorFaults = p.majorFaults;
        r.minorFaults = p.minorFaults;
        r.instructions = p.instructions;
        r.memRefs = p.memRefs;
        r.makespan = p.makespan;
    };
    fill(ra, a);
    fill(rb, b);
    return diffResults(ra, rb);
}

/** Re-run served jobs in-process and compare with their replies. */
void
checkFresh(const std::vector<Served> &samples, Outcome &outcome)
{
    for (const Served &s : samples) {
        JobResultReply fresh;
        fillResultReply(fresh, runSystemJob(specFromRequest(s.req)).result);
        const std::string d = diffReplies(fresh, s.reply);
        if (!d.empty())
            outcome.fail("served " + specFromRequest(s.req).key() + ": " +
                         d + " differs from a fresh run");
    }
}

// ---- shared per-layer measurements -------------------------------------

/**
 * The simulator-layer ledger over @p specs: each job runs through
 * System (untraced) and through the ledger, which must agree bit for
 * bit. @p overhead receives ledger wall over System::run wall.
 */
Metrics
simLayerMetrics(const std::vector<JobSpec> &specs,
                const ExpectedTable *table, Outcome &outcome,
                double &overhead, RunResult &sample_result)
{
    double next = 0, translate = 0, memorg = 0, empty = 0;
    std::uint64_t sampled = 0, refs = 0;
    double run_s = 0, loop_s = 0;
    double dram_ns = 0, core_ns = 0;
    std::uint64_t logged = 0;
    std::uint64_t swaps = 0, fills = 0, mem_refs = 0;
    std::uint64_t stacked = 0, served = 0;
    std::vector<double> ctor_ms, prealloc_ms, load_ms, run_ms;
    std::map<Design, std::pair<double, std::uint64_t>> per_design;

    for (const JobSpec &spec : specs) {
        ++outcome.attempted;
        const SystemJob sj = runSystemJob(spec);
        const LedgerJob lj = runLedger(spec, kMaxLog);
        const std::string d = diffResults(sj.result, lj.result);
        if (!d.empty())
            outcome.fail("ledger " + d + " differs from System::run on " +
                         spec.key());
        if (table)
            checkExpected(*table, spec.key(), statsOf(sj.result, lj.refs),
                          true, outcome);
        sample_result = sj.result;

        next += lj.nextNs;
        translate += lj.translateNs;
        memorg += lj.memorgNs;
        empty += lj.emptyNs;
        sampled += lj.sampled;
        refs += lj.refs;
        run_s += sj.runS;
        loop_s += lj.loopS;
        auto &pd = per_design[spec.design];
        pd.first += lj.memorgNs - lj.emptyNs;
        pd.second += lj.sampled;

        const auto n_log = static_cast<double>(lj.log.size());
        dram_ns += replayDramNs(lj, spec.opts.scale) * n_log;
        core_ns += replayCoreNs(lj) * n_log;
        logged += lj.log.size();

        swaps += lj.result.swaps;
        fills += lj.result.fills;
        mem_refs += lj.result.memRefs;
        stacked += lj.org.stackedServed;
        served += lj.org.stackedServed + lj.org.offchipServed;
        ctor_ms.push_back(sj.ctorS * 1e3);
        prealloc_ms.push_back(lj.preallocS * 1e3);
        load_ms.push_back(sj.loadS * 1e3);
        run_ms.push_back(sj.runS * 1e3);
    }

    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    // A timed call's interval minus the empty interval beside it.
    const auto per_call = [&](double sum) {
        return ratio(sum - empty, double(sampled));
    };
    const double core = ratio(core_ns, double(logged));
    Metrics m;
    m["workloads.next_ns"] = {per_call(next), "ns"};
    m["os.translate_ns"] = {per_call(translate), "ns"};
    m["memorg.access_ns"] = {per_call(memorg), "ns"};
    m["cpu.core_ns"] = {core, "ns"};
    m["dram.access_ns"] = {ratio(dram_ns, double(logged)), "ns"};
    // Untraced run() ns/ref not attributed to a layer (memorg already
    // holds the DRAM time): the earliest-core scan and bookkeeping.
    // Negative when timing each call separately loses the overlap the
    // untimed loop gets between calls.
    m["sim.loop_ns"] = {ratio(run_s * 1e9, double(refs)) - per_call(next) -
                            per_call(translate) - per_call(memorg) - core,
                        "ns"};
    for (Design d : kHybridDesigns) {
        const auto &pd = per_design[d];
        m[std::string("memorg.access_ns.") + designLabel(d)] = {
            ratio(pd.first, double(pd.second)), "ns"};
    }
    m["memorg.swaps_per_kref"] = {ratio(1e3 * double(swaps), double(mem_refs)),
                                  "1/kref"};
    m["memorg.fills_per_kref"] = {ratio(1e3 * double(fills), double(mem_refs)),
                                  "1/kref"};
    m["memorg.hit_rate"] = {ratio(double(stacked), double(served)), "ratio"};
    m["sim.system_ctor_ms"] = {mean(ctor_ms), "ms"};
    m["os.preallocate_ms"] = {mean(prealloc_ms), "ms"};
    m["sim.load_ms"] = {mean(load_ms), "ms"};
    m["sim.run_ms"] = {mean(run_ms), "ms"};
    overhead = ratio(loop_s, run_s);
    return m;
}

/**
 * serve.* metrics of one traced round plus a standalone ResultCache
 * and codec replay of @p sequence (after inserting @p prefill).
 */
Metrics
serveLayerMetrics(const ServeRound &round,
                  const std::vector<SubmitRunRequest> &sequence,
                  const std::vector<SubmitRunRequest> &prefill,
                  const RunResult &value)
{
    Metrics m;
    m["serve.submit_us"] = {median(round.submitUs), "us"};
    m["serve.result_us"] = {median(round.resultUs), "us"};
    for (const char *h : {"queue_wait_ms", "service_ms"}) {
        const std::string stat = std::string("serve_") + h;
        m[std::string("serve.") + h + ".p50"] = {
            statsQuantile(round.statsText, stat, "0.50"), "ms"};
        m[std::string("serve.") + h + ".p99"] = {
            statsQuantile(round.statsText, stat, "0.99"), "ms"};
    }
    m["serve.busy"] = {double(round.stats.rejectedBusy), "count"};
    m["serve.admission_rejected"] = {double(round.stats.admissionRejected),
                                     "count"};
    const std::uint64_t lookups = round.cacheHits + round.cacheMisses;
    m["serve.cache_hit_ratio"] = {
        lookups ? double(round.cacheHits) / double(lookups) : 0.0, "ratio"};
    for (auto &[name, metric] : stageSelfTimes(round.spans))
        m[name] = metric;

    // Standalone ResultCache replay of the workload's keys: the
    // prefill (serve_hot's warm-up) inserts, then the sequence's
    // lookups with an insert after each miss. Each timed call has an
    // empty interval beside it that measures the timer itself.
    const auto ns = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::nano>(b - a).count();
    };
    const CachedResult cached{JobState::Ok, value, 0.0};
    double lookup_ns = 0, insert_ns = 0, empty_ns = 0;
    std::uint64_t n_lookup = 0, n_insert = 0;
    const auto timed_insert = [&](ResultCache &cache, std::uint64_t key) {
        const auto e0 = Clock::now();
        const auto t0 = Clock::now();
        cache.insert(key, cached);
        const auto t1 = Clock::now();
        empty_ns += ns(e0, t0);
        insert_ns += ns(t0, t1);
        ++n_insert;
    };
    while (n_lookup < 50'000 && !sequence.empty()) {
        ResultCache cache(ServerConfig{}.cacheBytes);
        for (const SubmitRunRequest &r : prefill)
            timed_insert(cache, cacheKey(r));
        CachedResult out;
        for (const SubmitRunRequest &r : sequence) {
            const std::uint64_t key = cacheKey(r);
            const auto e0 = Clock::now();
            const auto t0 = Clock::now();
            const bool hit = cache.lookup(key, out);
            const auto t1 = Clock::now();
            empty_ns += ns(e0, t0);
            lookup_ns += ns(t0, t1);
            ++n_lookup;
            if (!hit)
                timed_insert(cache, key);
        }
    }
    const double empty = empty_ns / double(std::max<std::uint64_t>(
                                        1, n_lookup + n_insert));
    m["serve.cache_lookup_ns"] = {
        n_lookup ? lookup_ns / double(n_lookup) - empty : 0, "ns"};
    m["serve.cache_insert_ns"] = {
        n_insert ? insert_ns / double(n_insert) - empty : 0, "ns"};

    // SubmitRun + JobResultReply codecs on the workload's frames.
    JobResultReply reply;
    reply.state = JobState::Ok;
    fillResultReply(reply, value);
    std::vector<std::pair<std::vector<std::uint8_t>,
                          std::vector<std::uint8_t>>> frames;
    std::size_t sink = 0;
    std::uint64_t pairs = 0;
    const auto e0 = Clock::now();
    while (pairs < 50'000 && !sequence.empty()) {
        for (const SubmitRunRequest &r : sequence) {
            auto a = encodeSubmitRun(r);
            auto b = encodeJobResultReply(reply);
            sink += a.size() + b.size();
            if (frames.size() < sequence.size())
                frames.push_back({std::move(a), std::move(b)});
            ++pairs;
        }
    }
    const auto e1 = Clock::now();
    std::uint64_t decoded = 0;
    SubmitRunRequest dreq;
    JobResultReply drep;
    while (decoded < pairs) {
        for (const auto &[a, b] : frames) {
            sink += decodeSubmitRun(a, dreq) && decodeJobResultReply(b, drep);
            ++decoded;
        }
    }
    const auto e2 = Clock::now();
    if (sink == 0)
        throw std::runtime_error("codec replay produced nothing");
    m["serve.encode_ns"] = {
        pairs ? std::chrono::duration<double, std::nano>(e1 - e0).count() /
                    double(pairs)
              : 0.0,
        "ns"};
    m["serve.decode_ns"] = {
        decoded ? std::chrono::duration<double, std::nano>(e2 - e1).count() /
                      double(decoded)
                : 0.0,
        "ns"};
    return m;
}

// ---- workloads -----------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string expectedPath;
    std::string writeExpected;
};

/** Run-level facts printed in the info line. */
struct Info
{
    std::uint64_t rounds = 0;
    std::uint64_t latencySamples = 0;
    /** Reported beside the gated p95: host vCPU stalls of 5-50 ms
     *  reach 1-2% of serve_cold jobs in busy host phases, and move the
     *  p99 twice as far as the median, the p95 about as far. */
    double latencyP99Ms = 0.0;
    /** CPUs the workload's threads run on (0: all of nproc). */
    int cpus = 0;
};

/**
 * Confine this thread, and every thread it starts from now on, to the
 * last @p n CPUs it may run on (all of them when it may run on fewer);
 * returns how many that is.
 */
int
pinToLastCpus(int n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && CPU_COUNT(&set) < n; --cpu)
        if (CPU_ISSET(cpu, &allowed))
            CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("sched_setaffinity failed");
    return CPU_COUNT(&set);
}

/** One repetition of a workload's measured work. */
struct Round
{
    /** Set-up of a serve round: server start plus warm-up. (sim_hybrid
     *  times its set-ups per cell instead.) */
    double setupS = 0.0;
    /** Wall time of the round's jobs. */
    double wallS = 0.0;
    std::uint64_t jobs = 0;
    double refsPerS = 0.0;
    /** Per completed job: submit through result, or construction
     *  through run() for sim_hybrid. */
    std::vector<double> latencyMs;
};

/** Jobs per latency window: ten beyond the p99. */
constexpr std::size_t kWindowJobs = 1000;
/** Set-up-only repetitions of each sim_hybrid cell per round. */
constexpr int kExtraSetups = 2;

/**
 * Latency percentile @p q of @p rounds: the median of that percentile
 * over consecutive windows of kWindowJobs jobs (each round lists its
 * jobs client by client), so stalls that come in bursts move the tail
 * only when they reach most windows. With fewer jobs than one window,
 * the percentile of all of them.
 */
double
chunkedPercentile(const std::vector<Round> &rounds, double q)
{
    std::vector<double> per_window, window;
    for (const Round &r : rounds)
        for (double ms : r.latencyMs) {
            window.push_back(ms);
            if (window.size() == kWindowJobs) {
                per_window.push_back(percentile(window, q));
                window.clear();
            }
        }
    return per_window.empty() ? percentile(window, q) : median(per_window);
}

/** The end-to-end metrics from all of a run's rounds. */
Metrics
endToEnd(const std::vector<Round> &rounds, Info &info)
{
    std::vector<double> setup, wall, jobs_per_s, refs_per_s;
    info.rounds = rounds.size();
    info.latencySamples = 0;
    for (const Round &r : rounds) {
        setup.push_back(r.setupS);
        wall.push_back(r.wallS);
        jobs_per_s.push_back(double(r.jobs) / r.wallS);
        refs_per_s.push_back(r.refsPerS);
        info.latencySamples += r.latencyMs.size();
    }
    Metrics m;
    m["refs_per_s"] = {median(refs_per_s), "1/s"};
    m["batch_wall_s"] = {median(wall), "s"};
    m["setup_s"] = {median(setup), "s"};
    m["jobs_per_s"] = {median(jobs_per_s), "1/s"};
    m["latency_p50_ms"] = {chunkedPercentile(rounds, 0.50), "ms"};
    m["latency_p95_ms"] = {chunkedPercentile(rounds, 0.95), "ms"};
    info.latencyP99Ms = chunkedPercentile(rounds, 0.99);
    return m;
}

Metrics
simHybrid(const Args &a, const ExpectedTable &table, Outcome &outcome,
          Info &info)
{
    const std::vector<JobSpec> grid = hybridGrid(a.seed);
    if (a.trace) {
        double overhead = 0;
        RunResult sample;
        Metrics m = simLayerMetrics(grid, &table, outcome, overhead, sample);

        // The same grid served through chameleond, spans on.
        std::vector<SubmitRunRequest> reqs;
        for (const JobSpec &s : grid)
            reqs.push_back(requestFromSpec(s));
        ServeLoad load;
        load.request = [&reqs](std::uint64_t i) { return reqs[i]; };
        load.batch = reqs.size();
        const ServeRound round =
            runServeRound({2, 4, 100.0, true}, load, outcome);
        for (const Served &s : round.served)
            checkExpected(table, specFromRequest(s.req).key(),
                          statsOfReply(s.reply), false, outcome);
        for (auto &[name, metric] :
             serveLayerMetrics(round, reqs, {}, sample))
            m[name] = metric;
        m["ledger.overhead_ratio"] = {overhead, "ratio"};
        info.rounds = 1;
        return m;
    }

    std::vector<Round> rounds;
    // Per cell: construction plus load of every job and of
    // kExtraSetups set-up-only repetitions a round.
    std::vector<std::vector<double>> cell_setup(grid.size());
    // Per cell: construction through run() of every job.
    std::vector<std::vector<double>> cell_ms(grid.size());
    const auto start = Clock::now();
    do {
        Round round;
        double run_s = 0;
        std::uint64_t refs = 0;
        const auto b0 = Clock::now();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const JobSpec &spec = grid[i];
            ++outcome.attempted;
            SystemJob j;
            try {
                j = runSystemJob(spec);
            } catch (const std::exception &e) {
                ++outcome.failed;
                outcome.fail(spec.key() + ": " + e.what());
                continue;
            }
            checkExpected(table, spec.key(), statsOf(j.result, 0), false,
                          outcome);
            if (const JobStats *row = table.find(spec.key()))
                refs += row->refsTotal;
            run_s += j.runS;
            cell_setup[i].push_back(j.ctorS + j.loadS);
            cell_ms[i].push_back((j.ctorS + j.loadS + j.runS) * 1e3);
            round.latencyMs.push_back(cell_ms[i].back());
        }
        round.wallS = secondsBetween(b0, Clock::now());
        round.jobs = round.latencyMs.size();
        // Simulated references per second inside System::run.
        round.refsPerS = run_s > 0 ? double(refs) / run_s : 0.0;
        rounds.push_back(std::move(round));
        for (int rep = 0; rep < kExtraSetups; ++rep)
            for (std::size_t i = 0; i < grid.size(); ++i)
                cell_setup[i].push_back(timeSystemSetup(grid[i]));
    } while (secondsBetween(start, Clock::now()) < a.seconds);

    Metrics m = endToEnd(rounds, info);
    // The grid's set-up: each cell's median set-up, summed.
    double setup_s = 0;
    for (const std::vector<double> &samples : cell_setup)
        setup_s += median(samples);
    m["setup_s"].value = setup_s;
    // Twelve unlike jobs a round are too few for percentiles: each
    // cell's median job, then the median cell and the slowest cell.
    std::vector<double> cells;
    for (const std::vector<double> &samples : cell_ms)
        cells.push_back(median(samples));
    m["latency_p50_ms"].value = median(cells);
    m["latency_p95_ms"].value = *std::max_element(cells.begin(), cells.end());
    return m;
}

/** The parts serve_cold and serve_hot differ in. */
struct ServeWorkload
{
    ServeSetup setup;
    /** The load of round @p round (cold seeds differ per round). */
    std::function<ServeLoad(std::uint64_t round)> load;
    /** Per-reply output check. */
    std::function<void(const Served &, Outcome &)> check;
    /** Round-level output check (fresh re-runs). */
    std::function<void(const ServeRound &, std::uint64_t round,
                       Outcome &)> checkRound;
    /** CPUs every thread (server, clients, checks) runs on. */
    int cpus = 1;
    /** Jobs the simulator ledger runs in the traced pass. */
    std::vector<JobSpec> ledgerSpecs;
    /** Whether the expected table holds rows for ledgerSpecs. */
    bool ledgerInTable = false;
    /** Jobs run through the ledger only for memorg.access_ns.<design>
     *  when ledgerSpecs lack the sim_hybrid designs. */
    std::vector<JobSpec> designProbes;
    /** Requests replayed into the standalone cache and codecs. */
    std::vector<SubmitRunRequest> sequence;
    std::vector<SubmitRunRequest> prefill;
};

Metrics
serveRun(const Args &a, const ServeWorkload &w, const ExpectedTable &table,
         Outcome &outcome, Info &info)
{
    info.cpus = pinToLastCpus(w.cpus);
    if (a.trace) {
        // The same batch untraced, then with spans and call timers,
        // kOverheadPairs times; the per-layer numbers come from the
        // first traced round.
        const ServeLoad load = w.load(0);
        ServeSetup traced = w.setup;
        traced.tracePct = 100.0;
        traced.timeCalls = true;
        std::vector<double> plain_wall, traced_wall;
        std::vector<ServeRound> rounds;
        for (int pair = 0; pair < kOverheadPairs; ++pair) {
            const ServeSetup *setups[] = {&w.setup, &traced};
            for (const ServeSetup *setup : setups) {
                ServeRound r = runServeRound(*setup, load, outcome);
                for (const Served &s : r.served)
                    w.check(s, outcome);
                w.checkRound(r, 0, outcome);
                (setup == &traced ? traced_wall : plain_wall)
                    .push_back(r.batchWallS);
                if (setup == &traced && rounds.empty())
                    rounds.push_back(std::move(r));
            }
        }
        const ServeRound &round = rounds.front();

        double sim_overhead = 0;
        RunResult sample;
        Metrics m = simLayerMetrics(w.ledgerSpecs,
                                    w.ledgerInTable ? &table : nullptr,
                                    outcome, sim_overhead, sample);
        if (!w.designProbes.empty()) {
            double probe_overhead = 0;
            RunResult probe_sample;
            const Metrics probes =
                simLayerMetrics(w.designProbes, nullptr, outcome,
                                probe_overhead, probe_sample);
            for (Design d : kHybridDesigns) {
                const std::string name =
                    std::string("memorg.access_ns.") + designLabel(d);
                m[name] = probes.at(name);
            }
        }
        for (auto &[name, metric] :
             serveLayerMetrics(round, w.sequence, w.prefill, sample))
            m[name] = metric;
        m["ledger.overhead_ratio"] = {median(traced_wall) /
                                          median(plain_wall),
                                      "ratio"};
        info.rounds = 2 * kOverheadPairs;
        info.latencySamples = round.latencyMs.size();
        return m;
    }

    std::vector<Round> rounds;
    const auto start = Clock::now();
    for (std::uint64_t r = 0;
         r < kMinRounds || secondsBetween(start, Clock::now()) < a.seconds;
         ++r) {
        ServeRound served = runServeRound(w.setup, w.load(r), outcome);
        std::uint64_t refs = 0;
        for (const Served &s : served.served) {
            w.check(s, outcome);
            refs += s.reply.memRefs;
        }
        w.checkRound(served, r, outcome);
        Round round;
        round.setupS = served.setupS;
        round.wallS = served.batchWallS;
        round.jobs = served.served.size();
        // Simulated references (measured regions) served per second.
        round.refsPerS = double(refs) / served.batchWallS;
        round.latencyMs = std::move(served.latencyMs);
        rounds.push_back(std::move(round));
    }
    return endToEnd(rounds, info);
}

/** Serving-sized probe jobs for the sim_hybrid designs. */
std::vector<JobSpec>
designProbes()
{
    std::vector<JobSpec> probes;
    for (Design d : kHybridDesigns)
        probes.push_back(specFromRequest(servingRequest(d, "stream", 1)));
    return probes;
}

ServeWorkload
serveCold(const Args &a)
{
    ServeWorkload w;
    w.setup = {2, 4, 0.0, false};
    w.cpus = 2;
    const std::uint64_t seed = a.seed;
    w.load = [seed](std::uint64_t round) {
        ServeLoad load;
        const ColdRequests warm{seed, round, true};
        for (std::uint64_t i = 0; i < kColdWarmup; ++i)
            load.warmup.push_back(warm(i));
        load.request = ColdRequests{seed, round};
        load.batch = kColdBatch;
        return load;
    };
    w.check = [](const Served &s, Outcome &outcome) {
        if (s.reply.cacheFlags != 0)
            outcome.fail("serve_cold reply for " + s.req.design + "/" +
                         s.req.app + " came from the cache");
    };
    w.checkRound = [seed](const ServeRound &round, std::uint64_t r,
                          Outcome &outcome) {
        std::vector<Served> samples;
        for (std::uint64_t k = 0;
             k < kColdSamplesPerRound && !round.served.empty(); ++k)
            samples.push_back(
                round.served[mix64(seed + 31 * r + k) % round.served.size()]);
        checkFresh(samples, outcome);
    };
    // The ledger runs the first request of each combo in round 0.
    const ColdRequests first{seed, 0};
    const std::size_t n_combos =
        std::size(kFlatDesigns) * std::size(kColdApps);
    std::set<std::pair<std::string, std::string>> seen;
    for (std::uint64_t i = 0; seen.size() < n_combos; ++i) {
        const SubmitRunRequest req = first(i);
        if (seen.insert({req.design, req.app}).second)
            w.ledgerSpecs.push_back(specFromRequest(req));
    }
    w.designProbes = designProbes();
    for (std::uint64_t i = 0; i < kColdBatch; ++i)
        w.sequence.push_back(first(i));
    return w;
}

ServeWorkload
serveHot(const Args &a, const ExpectedTable &table)
{
    ServeWorkload w;
    w.setup = {2, 3, 0.0, false};
    w.cpus = 1;
    const HotRequests hot{a.seed};
    w.load = [hot](std::uint64_t) {
        ServeLoad load;
        load.warmup = hotSet();
        load.request = hot;
        load.batch = kHotBatch;
        return load;
    };
    w.check = [&table](const Served &s, Outcome &outcome) {
        if (!(s.reply.cacheFlags & kResultFromCache))
            outcome.fail("serve_hot reply for " + s.req.design + "/" +
                         s.req.app + " was not a cache hit");
        checkExpected(table, specFromRequest(s.req).key(),
                      statsOfReply(s.reply), false, outcome);
    };
    w.checkRound = [](const ServeRound &, std::uint64_t, Outcome &) {};
    for (const SubmitRunRequest &r : hotSet())
        w.ledgerSpecs.push_back(specFromRequest(r));
    w.ledgerInTable = true;
    for (std::uint64_t i = 0; i < 2000; ++i)
        w.sequence.push_back(hot(i));
    w.prefill = hotSet();
    return w;
}

/** Every expected-table row: the sim_hybrid cells and the hot set. */
int
writeExpected(const std::string &path)
{
    std::vector<JobSpec> specs;
    for (Design d : kHybridDesigns)
        for (const char *app : kHybridApps)
            for (std::uint64_t s = 1; s <= kSeedPool; ++s) {
                JobSpec spec;
                spec.design = d;
                spec.app = app;
                spec.opts.jobs = 1;
                spec.opts.seed = s;
                specs.push_back(spec);
            }
    for (const SubmitRunRequest &r : hotSet())
        specs.push_back(specFromRequest(r));

    ExpectedTable table;
    for (const JobSpec &spec : specs) {
        const SystemJob sj = runSystemJob(spec);
        const LedgerJob lj = runLedger(spec, 0);
        const std::string d = diffResults(sj.result, lj.result);
        if (!d.empty()) {
            std::fprintf(stderr, "ledger %s differs on %s\n", d.c_str(),
                         spec.key().c_str());
            return 1;
        }
        table.set(spec.key(), statsOf(sj.result, lj.refs));
    }
    table.save(path);
    std::fprintf(stderr, "wrote %zu rows to %s\n", specs.size(),
                 path.c_str());
    return 0;
}

// ---- output --------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

void
printInfo(const Args &a, const Info &info, int machine_cpus)
{
    std::cout << "{\"info\":{\"workload\":" << jsonQuote(a.workload)
              << ",\"seed\":" << a.seed << ",\"trace\":" << a.trace
              << ",\"seconds\":" << roundTripDouble(a.seconds)
              << ",\"rounds\":" << info.rounds
              << ",\"latency_samples\":" << info.latencySamples
              << ",\"latency_p99_ms\":" << jsonNumber(info.latencyP99Ms, 6)
              << ",\"nproc\":" << machine_cpus
              << ",\"cpus_used\":" << (info.cpus ? info.cpus : machine_cpus)
              << ",\"cpu_model\":" << jsonQuote(cpuModel())
              << ",\"compiler\":" << jsonQuote(PERFBENCH_COMPILER)
              << ",\"build_type\":" << jsonQuote(PERFBENCH_BUILD_TYPE)
              << "}}\n";
}

void
printResult(const Outcome &o, const Metrics &m)
{
    std::cout << "{\"correct\":" << (o.correct() ? "true" : "false")
              << ",\"attempted\":" << o.attempted
              << ",\"failed\":" << o.failed << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, metric] : m) {
        std::cout << (first ? "" : ",") << jsonQuote(name)
                  << ":{\"value\":" << jsonNumber(metric.value, 17)
                  << ",\"unit\":" << jsonQuote(metric.unit) << "}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sim_hybrid|serve_cold|serve_hot --seed N --seconds S "
                 "--trace 0|1 --expected TABLE\n"
                 "       perfbench --write-expected TABLE\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                a.workload = v;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v, &used);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v, &used);
            } else if (flag == "--trace") {
                a.trace = std::stoi(v, &used) != 0;
            } else if (flag == "--expected") {
                a.expectedPath = v;
            } else if (flag == "--write-expected") {
                a.writeExpected = v;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
            if (used != 0 && used != v.size())
                usage(("bad value for " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const int machine_cpus = nproc();
    setQuiet(true);
    try {
        if (!a.writeExpected.empty())
            return writeExpected(a.writeExpected);
        if (a.expectedPath.empty())
            usage("--expected is required");
        if (!(a.seconds > 0))
            usage("--seconds must be positive");
        const ExpectedTable table = ExpectedTable::load(a.expectedPath);

        Outcome outcome;
        Info info;
        Metrics m;
        if (a.workload == "sim_hybrid")
            m = simHybrid(a, table, outcome, info);
        else if (a.workload == "serve_cold")
            m = serveRun(a, serveCold(a), table, outcome, info);
        else if (a.workload == "serve_hot")
            m = serveRun(a, serveHot(a, table), table, outcome, info);
        else
            usage(("unknown workload '" + a.workload + "'").c_str());

        if (!a.trace) {
            m["ok_ratio"] = {
                outcome.attempted
                    ? double(outcome.attempted - outcome.failed) /
                          double(outcome.attempted)
                    : 0.0,
                "ratio"};
            m["peak_rss_mb"] = {peakRssMb(), "MiB"};
        }
        for (std::size_t i = 0; i < outcome.errors.size() && i < 20; ++i)
            std::fprintf(stderr, "check failed: %s\n",
                         outcome.errors[i].c_str());
        printInfo(a, info, machine_cpus);
        printResult(outcome, m);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
