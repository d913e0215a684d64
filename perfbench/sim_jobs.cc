#include "sim_jobs.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>

#include "common/stats.hh"
#include "core/chameleon.hh"
#include "cpu/core_model.hh"
#include "dram/dram_device.hh"
#include "os/mini_os.hh"
#include "util.hh"
#include "workloads/stream_gen.hh"

using namespace chameleon;

namespace perfbench
{

std::string
JobSpec::key() const
{
    return std::string(designLabel(design)) + " " + app + " " +
           std::to_string(opts.scale) + " " +
           std::to_string(opts.instrPerCore) + " " +
           std::to_string(opts.minRefsPerCore) + " " +
           std::to_string(opts.seed);
}

JobSpec
specFromRequest(const serve::SubmitRunRequest &req)
{
    const std::optional<Design> design = designFromLabel(req.design);
    if (!design)
        throw std::runtime_error("unknown design " + req.design);
    JobSpec spec;
    spec.design = *design;
    spec.app = req.app;
    spec.opts.seed = req.seed;
    spec.opts.scale = req.scale;
    spec.opts.instrPerCore = req.instrPerCore;
    spec.opts.minRefsPerCore = req.minRefsPerCore;
    spec.opts.jobs = 1;
    return spec;
}

serve::SubmitRunRequest
requestFromSpec(const JobSpec &spec)
{
    serve::SubmitRunRequest req;
    req.design = designLabel(spec.design);
    req.app = spec.app;
    req.seed = spec.opts.seed;
    req.scale = spec.opts.scale;
    req.instrPerCore = spec.opts.instrPerCore;
    req.minRefsPerCore = spec.opts.minRefsPerCore;
    return req;
}

namespace
{

AppProfile
profileFor(const JobSpec &spec)
{
    return findProfile(tableTwoSuite(spec.opts.scale), spec.app);
}

/** Measured and warm-up instruction counts, as runRateWorkload. */
void
instructionBudget(const AppProfile &profile, const BenchOptions &opts,
                  std::uint64_t &instr, std::uint64_t &warmup)
{
    instr = effectiveInstructions(profile, opts);
    warmup = static_cast<std::uint64_t>(static_cast<double>(instr) *
                                        opts.warmupFrac);
}

/** The simulated machine state the ledger drives. */
struct LedgerMachine
{
    MiniOs &os;
    MemOrganization &org;
    std::vector<CoreModel> cores;
    std::vector<std::unique_ptr<SyntheticStream>> streams;
    std::vector<ProcId> procs;
};

/** Per-phase accumulators; stamps compile away when untimed. */
struct LedgerAcc
{
    LedgerJob &job;
    std::size_t maxLog;
};

template <bool Timed>
inline Clock::time_point
stamp()
{
    if constexpr (Timed)
        return Clock::now();
    else
        return {};
}

inline double
ns(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** One reference of runPhase's loop body for core @p c. */
template <bool Timed>
inline void
ledgerStep(LedgerMachine &m, std::uint32_t c, LedgerAcc &acc)
{
    CoreModel &core = m.cores[c];
    // e0..t0 is empty: the timer's cost in this very context.
    const auto e0 = stamp<Timed>();
    const auto t0 = stamp<Timed>();
    const MemOp op = m.streams[c]->next();
    const auto t1 = stamp<Timed>();
    if (op.gap > 1)
        core.retireCompute(op.gap - 1);
    const auto t2 = stamp<Timed>();
    const Translation tr =
        m.os.translate(m.procs[c], op.vaddr, op.type, core.now());
    const auto t3 = stamp<Timed>();
    if (tr.stall)
        core.blockFor(tr.stall);
    const Cycle when =
        op.type == AccessType::Read ? core.issueRead() : core.now();
    const auto t4 = stamp<Timed>();
    const MemAccessResult r = m.org.access(tr.phys, op.type, when);
    const auto t5 = stamp<Timed>();
    if (op.type == AccessType::Read)
        core.completeRead(r.done);
    else
        core.retireWrite();
    if constexpr (Timed) {
        acc.job.emptyNs += ns(e0, t0);
        acc.job.nextNs += ns(t0, t1);
        acc.job.translateNs += ns(t2, t3);
        acc.job.memorgNs += ns(t4, t5);
        ++acc.job.sampled;
    }
    if (acc.job.log.size() < acc.maxLog)
        acc.job.log.push_back({tr.phys, when, tr.stall, r.done, op.gap,
                               static_cast<std::uint16_t>(c), op.type,
                               false});
}

/** System::runPhase, rebuilt from the layers' public calls. */
void
ledgerPhase(LedgerMachine &m, std::uint64_t retire_target,
            LedgerAcc &acc)
{
    const auto n = static_cast<std::uint32_t>(m.cores.size());
    std::vector<bool> done(n, false);
    std::uint32_t active = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (m.cores[i].retired() >= retire_target)
            done[i] = true;
        else
            ++active;
    }

    while (active > 0) {
        const bool timed = acc.job.refs++ % kSampleEvery == 0;
        std::uint32_t c = 0;
        Cycle best = ~static_cast<Cycle>(0);
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!done[i] && m.cores[i].now() < best) {
                best = m.cores[i].now();
                c = i;
            }
        }

        if (timed)
            ledgerStep<true>(m, c, acc);
        else
            ledgerStep<false>(m, c, acc);

        CoreModel &core = m.cores[c];
        if (core.retired() >= retire_target) {
            core.drain();
            if (acc.job.refs <= acc.maxLog)
                acc.job.log.back().drain = true;
            done[c] = true;
            --active;
        }
    }
}

} // namespace

SystemJob
runSystemJob(const JobSpec &spec)
{
    const SystemConfig cfg = makeSystemConfig(spec.design, spec.opts);
    const AppProfile profile = profileFor(spec);
    std::uint64_t instr = 0;
    std::uint64_t warmup = 0;
    instructionBudget(profile, spec.opts, instr, warmup);

    SystemJob job;
    const auto t0 = Clock::now();
    System sys(cfg);
    const auto t1 = Clock::now();
    sys.loadRateWorkload(profile);
    const auto t2 = Clock::now();
    job.result = sys.run(instr, warmup);
    const auto t3 = Clock::now();
    job.ctorS = secondsBetween(t0, t1);
    job.loadS = secondsBetween(t1, t2);
    job.runS = secondsBetween(t2, t3);
    return job;
}

double
timeSystemSetup(const JobSpec &spec)
{
    const SystemConfig cfg = makeSystemConfig(spec.design, spec.opts);
    const AppProfile profile = profileFor(spec);
    const auto t0 = Clock::now();
    System sys(cfg);
    sys.loadRateWorkload(profile);
    return secondsBetween(t0, Clock::now());
}

LedgerJob
runLedger(const JobSpec &spec, std::size_t max_log)
{
    const SystemConfig cfg = makeSystemConfig(spec.design, spec.opts);
    const AppProfile profile = profileFor(spec);
    std::uint64_t instr = 0;
    std::uint64_t warmup = 0;
    instructionBudget(profile, spec.opts, instr, warmup);

    LedgerJob job;
    job.log.reserve(max_log);
    System sys(cfg);

    // System::loadRateWorkload + loadPerCoreWorkloads, call for call.
    const SystemConfig &sc = sys.config();
    LedgerMachine m{sys.os(), sys.organization(), {}, {}, {}};
    AppProfile copy = profile;
    copy.footprintBytes = profile.copyFootprint(sc.numCores);
    m.cores.assign(sc.numCores, CoreModel(sc.core));
    job.coreConfig = sc.core;
    job.numCores = sc.numCores;
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < sc.numCores; ++c) {
        const ProcId pid = m.os.createProcess(
            copy.name + "#" + std::to_string(c), copy.footprintBytes);
        const auto p0 = Clock::now();
        m.os.preAllocate(pid);
        job.preallocS += secondsBetween(p0, Clock::now());
        m.procs.push_back(pid);
        m.streams.push_back(std::make_unique<SyntheticStream>(
            copy, copy.footprintBytes, sc.seed * 1000003 + c));
        total += copy.footprintBytes;
    }
    m.org.reserveFunctional(total);

    // System::run: warm-up phase, stats reset, measured phase.
    LedgerAcc acc{job, max_log};
    const auto l0 = Clock::now();
    if (warmup > 0)
        ledgerPhase(m, warmup, acc);
    m.org.resetStats();
    const double faults0 = static_cast<double>(m.os.stats().majorFaults);
    const double minor0 = static_cast<double>(m.os.stats().minorFaults);
    struct Snap
    {
        Cycle clock;
        std::uint64_t retired;
        Cycle faultStall;
    };
    std::vector<Snap> snaps;
    for (const CoreModel &core : m.cores)
        snaps.push_back({core.now(), core.retired(), core.faultStall()});
    ledgerPhase(m, warmup + instr, acc);
    job.loopS = secondsBetween(l0, Clock::now());

    // System::run's aggregation, in the same arithmetic.
    RunResult &res = job.result;
    std::uint64_t total_instr = 0;
    double util_sum = 0.0;
    for (std::size_t i = 0; i < m.cores.size(); ++i) {
        const Cycle cycles = m.cores[i].now() - snaps[i].clock;
        const std::uint64_t n_instr =
            m.cores[i].retired() - snaps[i].retired;
        const Cycle stall = m.cores[i].faultStall() - snaps[i].faultStall;
        res.ipcPerCore.push_back(cycles ? static_cast<double>(n_instr) /
                                              static_cast<double>(cycles)
                                        : 0.0);
        total_instr += n_instr;
        res.makespan = std::max(res.makespan, cycles);
        util_sum += cycles ? 1.0 - static_cast<double>(stall) /
                                       static_cast<double>(cycles)
                           : 1.0;
    }
    res.ipcGeoMean = geoMean(res.ipcPerCore);
    res.cpuUtilization = util_sum / static_cast<double>(m.cores.size());
    res.instructions = total_instr;

    const MemOrgStats &os = m.org.stats();
    job.org = os;
    res.stackedHitRate = os.stackedHitRate();
    res.swaps = static_cast<std::uint64_t>(static_cast<double>(os.swaps));
    res.fills = static_cast<std::uint64_t>(static_cast<double>(os.fills));
    res.amal = os.avgMemLatency();
    res.memRefs = static_cast<std::uint64_t>(
        static_cast<double>(os.reads) + static_cast<double>(os.writes));
    res.majorFaults = static_cast<std::uint64_t>(
        static_cast<double>(m.os.stats().majorFaults) - faults0);
    res.minorFaults = static_cast<std::uint64_t>(
        static_cast<double>(m.os.stats().minorFaults) - minor0);
    if (const auto *cham = dynamic_cast<const ChameleonMemory *>(&m.org))
        res.cacheModeFraction = cham->cacheModeFraction();
    return job;
}

double
replayDramNs(const LedgerJob &job, std::uint64_t scale)
{
    if (job.log.empty())
        return 0.0;
    // The OS address space can extend past the off-chip device (PoM
    // designs expose the stacked range); address mapping ignores the
    // capacity, so widen it to cover every replayed address.
    DramTimings t = offchipDramConfig(scale);
    for (const RefRecord &r : job.log)
        t.capacity = std::max<std::uint64_t>(t.capacity, r.phys + 64);
    DramDevice dev(t);
    Cycle sink = 0;
    const auto t0 = Clock::now();
    for (const RefRecord &r : job.log)
        sink += dev.access(r.phys, r.type, r.when);
    const auto t1 = Clock::now();
    if (sink == 0)
        throw std::runtime_error("DRAM replay completed nothing");
    return ns(t0, t1) / static_cast<double>(job.log.size());
}

double
replayCoreNs(const LedgerJob &job)
{
    if (job.log.empty())
        return 0.0;
    std::vector<CoreModel> cores(job.numCores, CoreModel(job.coreConfig));
    const auto t0 = Clock::now();
    for (const RefRecord &r : job.log) {
        CoreModel &core = cores[r.core];
        if (r.gap > 1)
            core.retireCompute(r.gap - 1);
        if (r.stall)
            core.blockFor(r.stall);
        if (r.type == AccessType::Read) {
            core.issueRead();
            core.completeRead(r.done);
        } else {
            core.retireWrite();
        }
        if (r.drain)
            core.drain();
    }
    const auto t1 = Clock::now();
    std::uint64_t retired = 0;
    for (const CoreModel &core : cores)
        retired += core.retired();
    if (retired == 0)
        throw std::runtime_error("core replay retired nothing");
    return ns(t0, t1) / static_cast<double>(job.log.size());
}

namespace
{

bool
same(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

} // namespace

std::string
diffResults(const RunResult &a, const RunResult &b)
{
    if (a.ipcPerCore.size() != b.ipcPerCore.size())
        return "ipc_per_core size";
    for (std::size_t i = 0; i < a.ipcPerCore.size(); ++i)
        if (!same(a.ipcPerCore[i], b.ipcPerCore[i]))
            return "ipc_per_core[" + std::to_string(i) + "]";
    const std::pair<const char *, bool> fields[] = {
        {"ipc", same(a.ipcGeoMean, b.ipcGeoMean)},
        {"hit_rate", same(a.stackedHitRate, b.stackedHitRate)},
        {"amal", same(a.amal, b.amal)},
        {"cache_mode_fraction",
         same(a.cacheModeFraction, b.cacheModeFraction)},
        {"cpu_utilization", same(a.cpuUtilization, b.cpuUtilization)},
        {"swaps", a.swaps == b.swaps},
        {"fills", a.fills == b.fills},
        {"major_faults", a.majorFaults == b.majorFaults},
        {"minor_faults", a.minorFaults == b.minorFaults},
        {"instructions", a.instructions == b.instructions},
        {"mem_refs", a.memRefs == b.memRefs},
        {"makespan", a.makespan == b.makespan},
    };
    for (const auto &[name, equal] : fields)
        if (!equal)
            return name;
    return "";
}

} // namespace perfbench
