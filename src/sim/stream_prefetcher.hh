/**
 * @file
 * Generates the cores' reference streams on a helper thread, ahead of
 * the timing loop that consumes them.
 *
 * An AddressStream's output depends only on its own state (a
 * SyntheticStream reads its RNG and position, a TraceStream its
 * parsed records), never on simulated time. So one helper thread can
 * call every core's next() ahead of System::runPhase and hand the ops
 * over through a lossless single-producer/single-consumer ring per
 * core. Each core receives the same ops in the same order as inline
 * calls would give it, so every result stays bit-identical; the
 * timing loop only stops paying for stream generation.
 *
 * Rings: one plain heap buffer of ringOps MemOps per core. The helper
 * fills whole chunks (chunkOps) and publishes a ring's tail once per
 * chunk; the consumer publishes its head once per chunk. Indices the
 * consumer writes, indices the helper writes, and each side's private
 * cursors sit on separate cache lines.
 *
 * Blocking, never spinning without bound:
 *  - The helper sleeps on a doorbell (C++20 atomic wait) when no ring
 *    has room for a chunk. The consumer rings it, when it sleeps, at
 *    a chunk boundary that leaves its ring at most half full, and
 *    always before it waits on an empty ring.
 *  - The consumer spins briefly on an empty ring, then sleeps on its
 *    own bell; the helper rings it after publishing to the ring the
 *    consumer announced it waits on, and when it ends.
 *  Each sleeper announces itself (seq_cst store), then reads the bell
 *  and re-reads what it waits for (seq_cst loads) before waiting on
 *  that bell value, while each waker publishes (seq_cst store) before
 *  reading the announcement, so one of the two always sees the other:
 *  no wake-up is lost. stop() rings the doorbell after raising its
 *  flag, and the helper re-reads the flag after announcing its sleep.
 *
 * CPU budget: a helper holds one SimThreadBudget thread, gives it
 * back when it ends, and ends on its own, handing the streams back,
 * once the process runs more simulation threads than it may use CPUs
 * (a sweep worker started its next run after this helper started).
 * The consumer then drains the rings and generates inline.
 *
 * Thread contract: one consumer thread owns the prefetcher and calls
 * next(), start() and stop(). Between start() and stop() the helper
 * owns the streams; the consumer touches them again only after stop()
 * has joined the helper. Ops buffered at stop() stay in the rings and
 * are consumed first by later next() calls, so a stopped prefetcher
 * still yields each stream in order.
 */

#ifndef CHAMELEON_SIM_STREAM_PREFETCHER_HH
#define CHAMELEON_SIM_STREAM_PREFETCHER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "workloads/address_stream.hh"

namespace chameleon
{

/**
 * Process-wide count of simulation threads: live Systems (each from
 * construction to destruction, so a sweep worker setting up its next
 * job already counts) plus running stream helpers. A helper starts
 * only while the count is below the number of CPUs the process may
 * run on and leaves once it is above, so a sweep with one worker per
 * CPU does not keep them oversubscribed.
 */
class SimThreadBudget
{
  public:
    /** Counts one simulation job (a System) for its lifetime. */
    class Job
    {
      public:
        Job();
        ~Job();
        Job(const Job &) = delete;
        Job &operator=(const Job &) = delete;
    };

    /** Fewer simulation threads than CPUs. */
    static bool hasRoom();
    /** Take one more thread if a CPU is free; true when taken. */
    static bool tryReserve();
    /** Return a thread taken by tryReserve(). */
    static void release();
    /** More simulation threads than CPUs. */
    static bool overrun();
    /** CPUs the calling thread may run on (sched_getaffinity). */
    static int cpus();
};

/** Per-core rings of MemOps filled by one helper thread. */
class StreamPrefetcher
{
  public:
    /** Ops one ring holds; a power of two. */
    static constexpr std::uint32_t ringOps = 1024;
    /** Ops the helper generates per ring visit; divides ringOps. */
    static constexpr std::uint32_t chunkOps = 256;
    /** How far ahead of its read next() prefetches a ring slot. */
    static constexpr std::uint32_t prefetchOps = 8;
    /**
     * References a System::run call generates inline before it starts
     * the helper: shorter runs (serving-sized jobs) never pay for the
     * thread or the rings.
     */
    static constexpr std::uint64_t inlineRefs = 1u << 16;

    /**
     * @param streams One stream per core; the prefetcher keeps raw
     *                pointers, so they must outlive it.
     */
    explicit StreamPrefetcher(
        const std::vector<std::unique_ptr<AddressStream>> &streams);
    ~StreamPrefetcher();

    StreamPrefetcher(const StreamPrefetcher &) = delete;
    StreamPrefetcher &operator=(const StreamPrefetcher &) = delete;

    /**
     * Core @p core's next op: from its ring while the helper runs or
     * ops remain buffered, else straight from the stream.
     */
    MemOp
    next(std::uint32_t core)
    {
        Cursor &cur = cursors[core];
        if (cur.head == cur.tailSeen && !refill(core)) [[unlikely]]
            return cur.stream->next();
        // The helper wrote these slots from another CPU: fetch the
        // line after next ahead of its first read.
        __builtin_prefetch(&cur.buf[(cur.head + prefetchOps) &
                                    (ringOps - 1)]);
        const MemOp op = cur.buf[cur.head & (ringOps - 1)];
        if ((++cur.head & (chunkOps - 1)) == 0) [[unlikely]]
            publishHead(core, false);
        return op;
    }

    /**
     * Start the helper thread if SimThreadBudget has a CPU for it and
     * the system has a thread to give; true when a helper runs.
     */
    bool start();
    /** Join the helper; buffered ops are kept (no-op when stopped). */
    void stop();

    /** A helper thread was started and not yet joined. */
    bool running() const { return helper.joinable(); }
    /** Times the helper thread has been started. */
    std::uint64_t starts() const { return startCount; }

  private:
    /** Consumer-private state of one ring. */
    struct alignas(64) Cursor
    {
        AddressStream *stream = nullptr;
        const MemOp *buf = nullptr;
        std::uint32_t head = 0;
        /** Last tail read from the helper. */
        std::uint32_t tailSeen = 0;
    };

    /** Helper-private state of one ring. */
    struct alignas(64) Fill
    {
        AddressStream *stream = nullptr;
        MemOp *buf = nullptr;
        std::uint32_t tail = 0;
        /** Last head read from the consumer. */
        std::uint32_t headSeen = 0;
    };

    /** One index on a cache line of its own. */
    struct alignas(64) Index
    {
        std::atomic<std::uint32_t> value{0};
    };

    /**
     * Consumer slow path on an empty ring: false when the helper is
     * stopped and nothing is buffered, else waits for a chunk.
     */
    bool refill(std::uint32_t core);
    /** Publish core's head; rings a sleeping helper when @p urgent or
     *  the ring is at most half full. */
    void publishHead(std::uint32_t core, bool urgent);

    /** Helper thread body. */
    void produce();
    /** Wake the consumer from its bell wait. */
    void ringConsumer();
    /** Generate one chunk into core's ring; false when it is full. */
    bool fillChunk(std::uint32_t core);
    /** Sleep until the consumer frees a chunk somewhere or stop(). */
    void sleepUntilRoom();

    std::vector<std::unique_ptr<MemOp[]>> buffers;
    std::vector<Cursor> cursors;
    std::vector<Fill> fills;
    /** Written by the consumer, read by the helper. */
    std::unique_ptr<Index[]> heads;
    /** Written by the helper, read by the consumer. */
    std::unique_ptr<Index[]> tails;

    /** Bumped to wake a sleeping helper (consumer, stop()). */
    Index doorbell;
    /** Helper announces it sleeps on the doorbell. */
    alignas(64) std::atomic<bool> helperAsleep{false};
    /** Consumer announces it waits on ring (value - 1); 0: none. */
    Index consumerWaiting;
    /** Bumped to wake the waiting consumer (helper). */
    Index consumerBell;
    alignas(64) std::atomic<bool> stopRequested{false};
    /** The helper left produce(): stopped, or its budget overran. */
    std::atomic<bool> helperEnded{false};

    std::uint64_t startCount = 0;
    std::thread helper;
};

} // namespace chameleon

#endif // CHAMELEON_SIM_STREAM_PREFETCHER_HH
