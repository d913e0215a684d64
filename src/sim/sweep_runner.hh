/**
 * @file
 * Deterministic, fault-tolerant parallel experiment engine for the
 * figure sweeps.
 *
 * Every bench grid is a set of fully independent jobs: each run owns
 * its own System (and therefore its own seeded RNG, DRAM state and
 * stats), so (design x workload x seed) cells can execute on any
 * thread in any order without changing a single counter. SweepRunner
 * exploits that: jobs are submitted in grid order, fanned across a
 * fixed pool of std::thread workers pulling from one shared queue (no
 * work stealing — the queue is the only scheduler), and results are
 * returned in *submission* order regardless of completion order, so
 * downstream table/geomean code is byte-identical to the sequential
 * version.
 *
 * Resilience: one misbehaving cell no longer poisons a sweep.
 *  - A job that throws is retried up to BenchOptions::maxRetries
 *    times with exponential backoff; if it keeps throwing, its cell
 *    is marked CellStatus::Failed (with the exception message) and
 *    the rest of the grid completes normally.
 *  - With BenchOptions::cellTimeoutSec set, a cell running past the
 *    budget is abandoned: it is marked CellStatus::Timeout, a
 *    replacement worker keeps the pool at full strength, and the
 *    stuck thread's eventual result is discarded. (The thread itself
 *    cannot be killed; a truly non-terminating job still delays final
 *    teardown in the destructor.)
 *  - With BenchOptions::checkpointPath set, every completed-ok cell
 *    is appended to a checkpoint file as it finishes; re-running the
 *    same sweep command resumes from it, re-using the recorded
 *    results (doubles round-trip via hexfloat, so a resumed sweep's
 *    --json output is byte-identical to an uninterrupted one).
 *
 * With jobs == 1 the runner executes each job inline at submit time
 * on the calling thread — bit-for-bit the pre-parallel behaviour
 * (retries, timeout marking and checkpointing still apply).
 *
 * The runner itself is internally synchronized; the simulator objects
 * inside each job remain thread-compatible, not thread-safe (one
 * System per job, never shared). Jobs share the log mutex and
 * SimThreadBudget's count of simulation threads, which counts every
 * live System: a job past 2^16 references starts a stream helper
 * thread only while that count is below the CPUs the process may use
 * (sim/stream_prefetcher.hh), so one worker per CPU leaves no room
 * for helpers until the grid's last cells.
 */

#ifndef CHAMELEON_SIM_SWEEP_RUNNER_HH
#define CHAMELEON_SIM_SWEEP_RUNNER_HH

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/system.hh"

namespace chameleon
{

/** Terminal state of one sweep cell. */
enum class CellStatus : std::uint8_t
{
    Ok,      ///< job completed within budget
    Failed,  ///< job threw on every attempt
    Timeout, ///< job exceeded the per-cell wall-clock budget
};

/** "ok" / "failed" / "timeout" (the --json "status" field). */
const char *cellStatusLabel(CellStatus status);

/** One completed cell: labels for reporting plus the run outcome. */
struct SweepRecord
{
    std::string design;
    std::string app;
    RunResult result;
    /** Wall-clock seconds this single run took. */
    double wallSeconds = 0.0;
    CellStatus status = CellStatus::Ok;
    /** Exception message for Failed cells ("" otherwise). */
    std::string error;
    /** Executions of the job (1 + retries actually taken). */
    unsigned attempts = 1;
    /** Result restored from the checkpoint file, not re-run. */
    bool fromCheckpoint = false;

    bool ok() const { return status == CellStatus::Ok; }
};

/** Resolve a --jobs request: 0 = auto (hardware_concurrency). */
unsigned resolveJobs(unsigned requested);

/** Fan-out runner for independent RunResult jobs. */
class SweepRunner
{
  public:
    /**
     * Worker count, --json destination, checkpoint path, timeout and
     * retry budget come from @p opts. An existing checkpoint file is
     * loaded here (and ignored with a warning if its header does not
     * match the current seed/scale/instr/refs).
     */
    explicit SweepRunner(const BenchOptions &opts);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /**
     * Enqueue one run; @p design / @p app label the row in reports
     * and --json output. Returns the job's submission index, which is
     * also its index in collect()'s result vector. If the checkpoint
     * holds a completed cell with this index/design/app, the job is
     * not executed and the recorded result is used instead.
     */
    std::size_t submit(std::string design, std::string app,
                       std::function<RunResult()> job);

    /**
     * Wait for every submitted job (abandoning cells that exceed the
     * per-cell timeout), write the --json file if one was requested,
     * and return the records in submission order. Never throws for
     * job failures: failed/timed-out cells carry their status in the
     * record (and "status" in the JSON). Callable once; submit() must
     * not be called afterwards.
     */
    std::vector<SweepRecord> collect();

    /** Convenience: collect() keeping only the RunResults. */
    std::vector<RunResult> collectResults();

    unsigned jobs() const { return workerCount; }

    /** Cells restored from the checkpoint so far (tests/reports). */
    std::size_t resumedCells() const { return resumedCount; }

  private:
    using Clock = std::chrono::steady_clock;

    void workerLoop();
    void runJob(std::size_t index);

    /** Load opts.checkpointPath into loadedCells (ctor). */
    void loadCheckpoint();
    /** Append one completed-ok cell; opens/creates the file lazily. */
    void appendCheckpoint(std::size_t index, const SweepRecord &rec);

    struct Pending
    {
        std::function<RunResult()> job;
        bool running = false;
        Clock::time_point startedAt{};
    };

    BenchOptions opts;
    unsigned workerCount;

    std::mutex mtx;
    std::condition_variable cv;
    std::vector<Pending> queue;
    std::size_t nextJob = 0;
    /** Cells with a final record (ok/failed/timeout/resumed). */
    std::vector<bool> finalized;
    std::size_t finalizedCount = 0;
    bool shutdown = false;

    std::vector<SweepRecord> records;
    std::vector<std::thread> workers;
    bool collected = false;

    /** Checkpoint state. */
    std::map<std::size_t, SweepRecord> loadedCells;
    std::FILE *checkpointFile = nullptr;
    bool checkpointHeaderMatched = false;
    std::size_t resumedCount = 0;
};

/**
 * Append every record as one JSON object to @p path (JSON array
 * document). Fields: design, app, seed, jobs, status, ipc, hit_rate,
 * swaps, fills, amal, instructions, mem_refs, retired_segments,
 * retired_bytes, ecc_corrected, ecc_uncorrectable, degraded_cycles,
 * wall_seconds (+ error for failed cells). Used by --json; exposed
 * for tests.
 */
void writeSweepJson(const std::string &path,
                    const std::vector<SweepRecord> &recs,
                    const BenchOptions &opts, unsigned jobs_used);

} // namespace chameleon

#endif // CHAMELEON_SIM_SWEEP_RUNNER_HH
