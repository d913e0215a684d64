/**
 * @file
 * ThreadRings — the per-thread overwrite-oldest ring storage shared by
 * TraceSink (simulator events) and SpanSink (serving spans).
 *
 * Each producing thread owns a private ring, registered under a mutex
 * on the thread's first push() into a given ThreadRings; every later
 * push() is a plain store into that ring with no synchronization. A
 * full ring overwrites its oldest item, and the overwritten count is
 * reported (recorded == dropped + retained), never silently hidden.
 *
 * The thread-local fast-path cache is keyed on a process-unique id,
 * not on the object's address, so a ThreadRings allocated where a
 * destroyed one lived can never inherit a stale ring pointer.
 *
 * Readers (stats(), forEachRetained(), sortedBy()) take the registry
 * mutex and must run after the producers have quiesced.
 */

#ifndef CHAMELEON_OBS_THREAD_RINGS_HH
#define CHAMELEON_OBS_THREAD_RINGS_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace chameleon
{

/** Ring accounting, summed over every producing thread. */
struct RingStats
{
    std::uint64_t recorded = 0; ///< items ever pushed
    std::uint64_t dropped = 0;  ///< overwritten by ring wraparound
    std::uint64_t retained = 0; ///< items currently in the rings
};

/** Process-unique, non-zero ThreadRings id (shared by every T). */
inline std::uint64_t
nextThreadRingsId()
{
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
}

template <typename T>
class ThreadRings
{
  public:
    /** @p capacity items per producing thread; must be non-zero. */
    explicit ThreadRings(std::size_t capacity)
        : cap(capacity), id(nextThreadRingsId())
    {
    }

    ThreadRings(const ThreadRings &) = delete;
    ThreadRings &operator=(const ThreadRings &) = delete;

    /** Store @p item (lock-free after this thread's first push). */
    void
    push(const T &item)
    {
        Ring &ring = tlCache.id == id ? *tlCache.ring : localRing();
        ring.items[static_cast<std::size_t>(ring.head % cap)] = item;
        ++ring.head;
    }

    RingStats
    stats() const
    {
        std::lock_guard<std::mutex> guard(mtx);
        RingStats s;
        for (const auto &ring : rings) {
            const std::uint64_t kept =
                std::min<std::uint64_t>(ring->head, cap);
            s.recorded += ring->head;
            s.retained += kept;
            s.dropped += ring->head - kept;
        }
        return s;
    }

    /**
     * Call @p fn(ringIndex, item) on every retained item: ring by ring
     * in registration order, oldest first within each ring.
     */
    template <typename Fn>
    void
    forEachRetained(Fn &&fn) const
    {
        std::lock_guard<std::mutex> guard(mtx);
        for (std::size_t r = 0; r < rings.size(); ++r) {
            const Ring &ring = *rings[r];
            const std::size_t kept = static_cast<std::size_t>(
                std::min<std::uint64_t>(ring.head, cap));
            // When the ring has wrapped, the oldest retained item sits
            // in the slot the next push() would overwrite.
            const std::size_t start =
                ring.head > cap ? static_cast<std::size_t>(ring.head % cap)
                                : 0;
            for (std::size_t i = 0; i < kept; ++i)
                fn(r, ring.items[(start + i) % cap]);
        }
    }

    /**
     * Every retained item, merged across rings and stably sorted by
     * @p key(item) (ties keep ring order, then oldest first).
     */
    template <typename Key>
    std::vector<T>
    sortedBy(Key key) const
    {
        std::vector<T> all;
        forEachRetained(
            [&](std::size_t, const T &item) { all.push_back(item); });
        std::stable_sort(all.begin(), all.end(),
                         [&](const T &a, const T &b) {
                             return key(a) < key(b);
                         });
        return all;
    }

  private:
    struct Ring
    {
        Ring(std::size_t capacity, std::thread::id who)
            : items(capacity), owner(who)
        {
        }
        std::vector<T> items;
        std::thread::id owner;
        /** Total items ever pushed; head % capacity is the write slot. */
        std::uint64_t head = 0;
    };

    /** The calling thread's (ThreadRings id → ring) cache. */
    struct RingCache
    {
        std::uint64_t id = 0; ///< 0 never matches a live ThreadRings
        Ring *ring = nullptr;
    };

    /** Slow path: find or register this thread's ring, then cache it. */
    Ring &
    localRing()
    {
        std::lock_guard<std::mutex> guard(mtx);
        const std::thread::id self = std::this_thread::get_id();
        Ring *ring = nullptr;
        for (const auto &r : rings) {
            if (r->owner == self) {
                ring = r.get();
                break;
            }
        }
        if (!ring) {
            rings.push_back(std::make_unique<Ring>(cap, self));
            ring = rings.back().get();
        }
        tlCache = RingCache{id, ring};
        return *ring;
    }

    static inline thread_local RingCache tlCache;

    const std::size_t cap;
    const std::uint64_t id;
    mutable std::mutex mtx;
    std::vector<std::unique_ptr<Ring>> rings;
};

} // namespace chameleon

#endif // CHAMELEON_OBS_THREAD_RINGS_HH
