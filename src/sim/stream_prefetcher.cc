#include "sim/stream_prefetcher.hh"

#include <sched.h>

#include <system_error>

namespace chameleon
{

namespace
{

std::atomic<int> simThreads{0};

/** Consumer polls of an empty ring before it blocks. */
constexpr int spinPolls = 1024;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

} // namespace

SimThreadBudget::Job::Job() { simThreads.fetch_add(1); }

SimThreadBudget::Job::~Job() { simThreads.fetch_sub(1); }

bool
SimThreadBudget::hasRoom()
{
    return simThreads.load() < cpus();
}

bool
SimThreadBudget::tryReserve()
{
    const int limit = cpus();
    int n = simThreads.load();
    while (n < limit)
        if (simThreads.compare_exchange_weak(n, n + 1))
            return true;
    return false;
}

void
SimThreadBudget::release()
{
    simThreads.fetch_sub(1);
}

bool
SimThreadBudget::overrun()
{
    return simThreads.load() > cpus();
}

int
SimThreadBudget::cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

StreamPrefetcher::StreamPrefetcher(
    const std::vector<std::unique_ptr<AddressStream>> &streams)
    : cursors(streams.size()), fills(streams.size()),
      heads(new Index[streams.size()]), tails(new Index[streams.size()])
{
    for (std::size_t c = 0; c < streams.size(); ++c) {
        buffers.emplace_back(new MemOp[ringOps]);
        cursors[c].stream = fills[c].stream = streams[c].get();
        cursors[c].buf = fills[c].buf = buffers[c].get();
    }
}

StreamPrefetcher::~StreamPrefetcher() { stop(); }

bool
StreamPrefetcher::start()
{
    if (running() && !helperEnded.load())
        return true;
    stop();
    if (!SimThreadBudget::tryReserve())
        return false;
    stopRequested.store(false);
    helperEnded.store(false);
    try {
        helper = std::thread([this] { produce(); });
    } catch (const std::system_error &) {
        // No thread to be had: the consumer keeps generating inline.
        SimThreadBudget::release();
        return false;
    }
    ++startCount;
    return true;
}

void
StreamPrefetcher::stop()
{
    if (!running())
        return;
    stopRequested.store(true);
    doorbell.value.fetch_add(1);
    doorbell.value.notify_one();
    helper.join();
}

bool
StreamPrefetcher::refill(std::uint32_t core)
{
    Cursor &cur = cursors[core];
    std::atomic<std::uint32_t> &tail = tails[core].value;
    cur.tailSeen = tail.load(std::memory_order_acquire);
    if (cur.head != cur.tailSeen)
        return true;
    if (!running())
        return false;

    // The ring is empty: hand the helper every freed slot, then poll
    // a while before blocking.
    publishHead(core, true);
    for (int i = 0; i < spinPolls && !helperEnded.load(); ++i) {
        cpuRelax();
        cur.tailSeen = tail.load(std::memory_order_acquire);
        if (cur.head != cur.tailSeen)
            return true;
    }
    consumerWaiting.value.store(core + 1);
    for (;;) {
        const std::uint32_t bell = consumerBell.value.load();
        if ((cur.tailSeen = tail.load()) != cur.head || helperEnded.load())
            break;
        consumerBell.value.wait(bell);
    }
    consumerWaiting.value.store(0, std::memory_order_relaxed);
    if (cur.head != cur.tailSeen)
        return true;
    // The helper gave its CPU back: join it and take the streams back
    // once the chunks it published before leaving are consumed.
    stop();
    cur.tailSeen = tail.load(std::memory_order_acquire);
    return cur.head != cur.tailSeen;
}

void
StreamPrefetcher::publishHead(std::uint32_t core, bool urgent)
{
    Cursor &cur = cursors[core];
    heads[core].value.store(cur.head);
    // Waking the helper costs a syscall; let it sleep until this ring
    // is at least half drained.
    cur.tailSeen = tails[core].value.load(std::memory_order_acquire);
    if ((urgent || cur.tailSeen - cur.head <= ringOps / 2) &&
        helperAsleep.load()) {
        doorbell.value.fetch_add(1);
        doorbell.value.notify_one();
    }
}

void
StreamPrefetcher::produce()
{
    // The budget is checked once per pass over the rings.
    const auto n = static_cast<std::uint32_t>(fills.size());
    while (!stopRequested.load(std::memory_order_relaxed) &&
           !SimThreadBudget::overrun()) {
        bool filled = false;
        for (std::uint32_t c = 0;
             c < n && !stopRequested.load(std::memory_order_relaxed); ++c)
            filled |= fillChunk(c);
        if (!filled)
            sleepUntilRoom();
    }
    SimThreadBudget::release();
    helperEnded.store(true);
    if (consumerWaiting.value.load() != 0)
        ringConsumer();
}

void
StreamPrefetcher::ringConsumer()
{
    consumerBell.value.fetch_add(1);
    consumerBell.value.notify_one();
}

bool
StreamPrefetcher::fillChunk(std::uint32_t core)
{
    Fill &f = fills[core];
    if (f.tail - f.headSeen > ringOps - chunkOps) {
        f.headSeen = heads[core].value.load(std::memory_order_acquire);
        if (f.tail - f.headSeen > ringOps - chunkOps)
            return false;
    }
    // Chunks never straddle the wrap: tail advances a chunk at a time.
    MemOp *dst = f.buf + (f.tail & (ringOps - 1));
    for (std::uint32_t i = 0; i < chunkOps; ++i)
        dst[i] = f.stream->next();
    f.tail += chunkOps;
    tails[core].value.store(f.tail);
    if (consumerWaiting.value.load() == core + 1)
        ringConsumer();
    return true;
}

void
StreamPrefetcher::sleepUntilRoom()
{
    const std::uint32_t bell = doorbell.value.load();
    helperAsleep.store(true);
    // Re-read every head after announcing the sleep: a consumer that
    // published before seeing the announcement is caught here.
    bool room = false;
    for (std::uint32_t c = 0; c < fills.size(); ++c) {
        Fill &f = fills[c];
        f.headSeen = heads[c].value.load();
        room |= f.tail - f.headSeen <= ringOps - chunkOps;
    }
    if (!room && !stopRequested.load())
        doorbell.value.wait(bell);
    helperAsleep.store(false, std::memory_order_relaxed);
}

} // namespace chameleon
