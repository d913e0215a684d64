/**
 * @file
 * Flat open-addressing hash map for the simulator's hot paths.
 *
 * The sparse per-64B-block stores (memorg functional layer) and the
 * AutoNUMA remote-access counters are touched once per memory
 * reference, and profiling shows std::unordered_map's
 * node-per-entry layout (malloc per insert, pointer chase per lookup)
 * dominating the functional layer. FlatMap stores entries inline in
 * one power-of-two slot array with linear probing and tombstone
 * deletion: one cache line per lookup in the common case, zero
 * allocations after reserve().
 *
 * Deliberately a subset of the std::unordered_map interface — exactly
 * what the simulator uses: operator[], find, erase (by key and by
 * iterator), clear, size, empty, reserve and forward iteration. Keys
 * and values must be trivially movable; iteration order is the probe
 * order (unspecified, but deterministic for a given insertion
 * sequence, which the determinism tests rely on).
 *
 * Thread-compatible, not thread-safe; each System owns its maps.
 */

#ifndef CHAMELEON_COMMON_FLAT_MAP_HH
#define CHAMELEON_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace chameleon
{

/**
 * Hash adaptor: finalizes any std::size_t hash with a strong 64-bit
 * mixer (splitmix64 finalizer). libstdc++'s std::hash for integers is
 * the identity, which clusters catastrophically under linear probing
 * when keys share a stride (block addresses are multiples of 64);
 * mixing restores uniform probe distribution for any inner hash.
 */
template <typename Key, typename Inner = std::hash<Key>>
struct FlatHash
{
    std::size_t
    operator()(const Key &k) const
    {
        std::uint64_t z = static_cast<std::uint64_t>(Inner()(k));
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(z ^ (z >> 31));
    }
};

/** Open-addressing hash map: linear probe, power-of-two capacity,
 *  tombstones, max load factor 0.7. */
template <typename Key, typename Value,
          typename Hash = FlatHash<Key>>
class FlatMap
{
    enum class SlotState : std::uint8_t
    {
        Empty,
        Full,
        Tomb,
    };

    struct Slot
    {
        std::pair<Key, Value> kv;
        SlotState state = SlotState::Empty;
    };

  public:
    using value_type = std::pair<Key, Value>;

    /** Forward iterator over occupied slots. */
    template <bool Const>
    class Iter
    {
        using SlotPtr =
            std::conditional_t<Const, const Slot *, Slot *>;

      public:
        Iter(SlotPtr slot, SlotPtr end) : cur(slot), last(end)
        {
            skipEmpty();
        }

        auto &operator*() const { return cur->kv; }
        auto *operator->() const { return &cur->kv; }

        Iter &
        operator++()
        {
            ++cur;
            skipEmpty();
            return *this;
        }

        bool operator==(const Iter &o) const { return cur == o.cur; }
        bool operator!=(const Iter &o) const { return cur != o.cur; }

      private:
        friend class FlatMap;

        void
        skipEmpty()
        {
            while (cur != last && cur->state != SlotState::Full)
                ++cur;
        }

        SlotPtr cur;
        SlotPtr last;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;

    /** Size hint: pre-allocate so @p n entries fit without rehash. */
    explicit FlatMap(std::size_t n) { reserve(n); }

    std::size_t size() const { return full; }
    bool empty() const { return full == 0; }

    /** Grow so that @p n entries fit below the max load factor. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = minCapacity;
        while (n * 10 >= want * 7)
            want *= 2;
        if (want > slots.size())
            rehash(want);
    }

    void
    clear()
    {
        // Keep the capacity: the AutoNUMA counters clear every epoch
        // and immediately refill to a similar size.
        for (Slot &s : slots)
            s.state = SlotState::Empty;
        full = 0;
        used = 0;
    }

    iterator
    begin()
    {
        return iterator(slots.data(), slots.data() + slots.size());
    }

    iterator
    end()
    {
        return iterator(slots.data() + slots.size(),
                        slots.data() + slots.size());
    }

    const_iterator
    begin() const
    {
        return const_iterator(slots.data(),
                              slots.data() + slots.size());
    }

    const_iterator
    end() const
    {
        return const_iterator(slots.data() + slots.size(),
                              slots.data() + slots.size());
    }

    iterator
    find(const Key &key)
    {
        Slot *s = findSlot(key);
        return s ? iterator(s, slots.data() + slots.size()) : end();
    }

    const_iterator
    find(const Key &key) const
    {
        const Slot *s = const_cast<FlatMap *>(this)->findSlot(key);
        return s ? const_iterator(s, slots.data() + slots.size())
                 : end();
    }

    bool
    contains(const Key &key) const
    {
        return const_cast<FlatMap *>(this)->findSlot(key) != nullptr;
    }

    Value &
    operator[](const Key &key)
    {
        return insertSlot(key)->kv.second;
    }

    /** Insert if absent; returns (iterator, inserted). */
    std::pair<iterator, bool>
    emplace(const Key &key, const Value &value)
    {
        const std::size_t before = full;
        Slot *s = insertSlot(key);
        const bool inserted = full != before;
        if (inserted)
            s->kv.second = value;
        return {iterator(s, slots.data() + slots.size()), inserted};
    }

    /** Erase by key; returns the number of entries removed (0 or 1). */
    std::size_t
    erase(const Key &key)
    {
        Slot *s = findSlot(key);
        if (!s)
            return 0;
        s->state = SlotState::Tomb;
        --full;
        return 1;
    }

    /** Erase at @p it; returns the iterator to the next entry. */
    iterator
    erase(iterator it)
    {
        it.cur->state = SlotState::Tomb;
        --full;
        ++it;
        return it;
    }

  private:
    static constexpr std::size_t minCapacity = 16;

    std::size_t
    indexOf(const Key &key) const
    {
        return hasher(key) & (slots.size() - 1);
    }

    /** Locate the Full slot holding @p key, or nullptr. */
    Slot *
    findSlot(const Key &key)
    {
        if (slots.empty())
            return nullptr;
        std::size_t i = indexOf(key);
        while (true) {
            Slot &s = slots[i];
            if (s.state == SlotState::Empty)
                return nullptr;
            if (s.state == SlotState::Full && s.kv.first == key)
                return &s;
            i = (i + 1) & (slots.size() - 1);
        }
    }

    /** Locate @p key or claim a slot for it (default Value). */
    Slot *
    insertSlot(const Key &key)
    {
        if (slots.empty()) {
            rehash(minCapacity);
        } else if ((used + 1) * 10 >= slots.size() * 7) {
            // Double when genuinely full; rehash in place when
            // tombstones are the bulk of the load (erase-heavy use
            // drops them without growing the table).
            const bool mostly_live = (full + 1) * 2 > slots.size();
            rehash(mostly_live ? slots.size() * 2 : slots.size());
        }
        std::size_t i = indexOf(key);
        Slot *tomb = nullptr;
        while (true) {
            Slot &s = slots[i];
            if (s.state == SlotState::Empty) {
                Slot *dst = tomb ? tomb : &s;
                if (!tomb)
                    ++used; // claiming a never-used slot
                dst->kv = {key, Value()};
                dst->state = SlotState::Full;
                ++full;
                return dst;
            }
            if (s.state == SlotState::Tomb) {
                if (!tomb)
                    tomb = &s; // best candidate so far; keep probing
            } else if (s.kv.first == key) {
                return &s;
            }
            i = (i + 1) & (slots.size() - 1);
        }
    }

    void
    rehash(std::size_t new_capacity)
    {
        // Dropping tombstones may already bring the load under the
        // threshold; only then is same-size rehash (anti-drift) OK.
        std::vector<Slot> old = std::move(slots);
        slots.assign(new_capacity, Slot());
        full = 0;
        used = 0;
        for (Slot &s : old)
            if (s.state == SlotState::Full)
                insertSlot(s.kv.first)->kv.second =
                    std::move(s.kv.second);
    }

    Hash hasher;
    std::vector<Slot> slots;
    std::size_t full = 0; ///< live entries
    std::size_t used = 0; ///< live entries + tombstones
};

} // namespace chameleon

#endif // CHAMELEON_COMMON_FLAT_MAP_HH
