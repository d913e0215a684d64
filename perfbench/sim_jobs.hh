/**
 * @file
 * Simulation jobs as the benchmark runs them: through the public
 * System API (the untraced path every end-to-end number comes from),
 * and through the ledger, a copy of System::runPhase assembled from
 * the layers' public calls with a timer around each call.
 *
 * The ledger drives SyntheticStream::next, MiniOs::translate,
 * MemOrganization::access and CoreModel exactly as runPhase does, so
 * its RunResult must equal System::run's bit for bit; diffResults()
 * is the check that keeps the copy from drifting.
 */

#ifndef PERFBENCH_SIM_JOBS_HH
#define PERFBENCH_SIM_JOBS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_model.hh"
#include "memorg/mem_organization.hh"
#include "serve/protocol.hh"
#include "sim/experiment.hh"

namespace perfbench
{

/** One rate-mode simulation job. */
struct JobSpec
{
    chameleon::Design design = chameleon::Design::ChameleonOpt;
    std::string app;
    /** scale / instrPerCore / minRefsPerCore / seed / warmupFrac. */
    chameleon::BenchOptions opts;

    /** "design app scale instr refs seed": the expected-table key. */
    std::string key() const;
};

/** The job chameleond runs for @p req (mirrors Server::executeJob). */
JobSpec specFromRequest(const chameleon::serve::SubmitRunRequest &req);

/** The SubmitRun request that asks a server for @p spec. */
chameleon::serve::SubmitRunRequest requestFromSpec(const JobSpec &spec);

/** Untraced job through System: construct, load, run. */
struct SystemJob
{
    chameleon::RunResult result;
    double ctorS = 0.0;
    double loadS = 0.0;
    double runS = 0.0;
};

SystemJob runSystemJob(const JobSpec &spec);

/** Construct and load @p spec's System without running it; seconds. */
double timeSystemSetup(const JobSpec &spec);

/**
 * One reference as the ledger drove it: what the organization, DRAM
 * and core replays need to repeat the same work in isolation.
 */
struct RefRecord
{
    chameleon::Addr phys = 0;
    /** Cycle the organization access was issued. */
    chameleon::Cycle when = 0;
    /** Translation stall charged to the core. */
    chameleon::Cycle stall = 0;
    /** Read completion cycle returned by the organization. */
    chameleon::Cycle done = 0;
    std::uint32_t gap = 1;
    std::uint16_t core = 0;
    chameleon::AccessType type = chameleon::AccessType::Read;
    /** The core reached its phase target and drained after this. */
    bool drain = false;
};

/** The ledger's account of one job. */
struct LedgerJob
{
    chameleon::RunResult result;
    /** Organization counters of the measured region. */
    chameleon::MemOrgStats org;
    /** References simulated, warm-up included. */
    std::uint64_t refs = 0;
    /** References whose calls were timed (every kSampleEvery-th). */
    std::uint64_t sampled = 0;
    /** Interval sums over the sampled references, timers included. */
    double nextNs = 0.0;
    double translateNs = 0.0;
    double memorgNs = 0.0;
    /** An empty interval per sampled reference: the timer's own cost. */
    double emptyNs = 0.0;
    /** MiniOs::preAllocate calls of the replayed load. */
    double preallocS = 0.0;
    /** Both run phases, timers included. */
    double loopS = 0.0;
    chameleon::CoreConfig coreConfig;
    std::uint32_t numCores = 0;
    /** The job's first references, for the replays. */
    std::vector<RefRecord> log;
};

/** Time the calls of one reference in this many. */
constexpr std::uint64_t kSampleEvery = 8;

/** Run @p spec through the ledger, logging up to @p max_log refs. */
LedgerJob runLedger(const JobSpec &spec, std::size_t max_log);

/**
 * Replay the logged references into a standalone off-chip DramDevice
 * of the job's scale; returns ns per DramDevice::access.
 */
double replayDramNs(const LedgerJob &job, std::uint64_t scale);

/**
 * Replay the logged core operations (compute retirement, fault
 * stalls, read issue/completion, posted writes, drains) into fresh
 * CoreModels; returns ns per reference. These calls take a few ns,
 * below what a per-call timer resolves, so they are timed in bulk.
 */
double replayCoreNs(const LedgerJob &job);

/** "" when @p a and @p b are bit-identical, else the first field. */
std::string diffResults(const chameleon::RunResult &a,
                        const chameleon::RunResult &b);

} // namespace perfbench

#endif // PERFBENCH_SIM_JOBS_HH
