/**
 * @file
 * Chameleon — the paper's primary contribution (basic design, §V-B).
 *
 * Chameleon is a hardware-managed PoM that listens to the OS's
 * ISA-Alloc / ISA-Free notifications and opportunistically converts
 * OS-free stacked DRAM segments into a hardware-managed cache:
 *
 *  - A segment group whose *stacked* logical segment is free operates
 *    in cache mode: the stacked physical slot caches the hottest
 *    allocated off-chip segment of the group with no swap threshold
 *    (every miss fills), giving cache-like adaptivity.
 *  - Once the stacked segment is allocated again the group reverts to
 *    PoM mode (full OS-visible capacity, threshold-gated hot swaps).
 *
 * Mode transitions follow the Fig 8 (ISA-Alloc) and Fig 10 (ISA-Free)
 * flowcharts, including the Fig 11 proactive swap that liberates the
 * stacked physical slot when the freed stacked segment is currently
 * remapped off-chip. Segments transitioning between cache and PoM use
 * are cleared to prevent cross-process information leaks (§V-D2).
 *
 * Thread-compatible, not thread-safe: one instance per System.
 */

#ifndef CHAMELEON_CORE_CHAMELEON_HH
#define CHAMELEON_CORE_CHAMELEON_HH

#include <vector>

#include "core/srrt.hh"
#include "memorg/pom.hh"

namespace chameleon
{

/** Chameleon-specific counters (on top of MemOrgStats). */
struct ChameleonStats
{
    std::uint64_t allocTransitions = 0;  ///< cache -> PoM switches
    std::uint64_t freeTransitions = 0;   ///< PoM -> cache switches
    std::uint64_t isaAllocsSeen = 0;
    std::uint64_t isaFreesSeen = 0;
    std::uint64_t cacheHits = 0;   ///< cache-mode stacked hits
    std::uint64_t cacheMisses = 0; ///< cache-mode off-chip services
    std::uint64_t segmentClears = 0;
};

/** The basic Chameleon organization. */
class ChameleonMemory : public PomMemory
{
  public:
    ChameleonMemory(DramDevice *stacked, DramDevice *offchip,
                    const PomConfig &config = PomConfig());

    MemAccessResult access(Addr phys, AccessType type,
                           Cycle when) override;
    const char *name() const override;
    /** Warms the group's SRT entry and its Fig 7 augment. */
    void prefetch(Addr phys) const override;

    void isaAlloc(Addr seg_base, Cycle when) override;
    void isaFree(Addr seg_base, Cycle when) override;

    /**
     * Retirement with cache-mode awareness: a cached segment is
     * written back to its off-chip home before the stacked slot goes
     * dead, and the group is pinned in PoM mode so it never caches
     * into the retired storage again.
     */
    bool retireAt(Addr phys, Cycle when) override;

    const ChameleonStats &chamStats() const { return chamData; }

    /** Mode of one group (tests / Fig 16 distribution). */
    GroupMode groupMode(std::uint64_t group) const
    {
        return aug[group].mode;
    }

    /** ABV of one group (tests). */
    std::uint8_t groupAbv(std::uint64_t group) const
    {
        return aug[group].abv;
    }

    /** Logical slot cached in the stacked slot (verify/; tests). */
    std::uint8_t groupCachedSlot(std::uint64_t group) const
    {
        return aug[group].cachedSlot;
    }

    /** Dirty bit of the cached segment (verify/; tests). */
    bool groupDirty(std::uint64_t group) const
    {
        return aug[group].dirty;
    }

    /** Fraction of groups currently in cache mode (Fig 16/21). */
    double cacheModeFraction() const;

    /** Internal invariant check; returns false on violation (tests). */
    virtual bool checkInvariants() const;

  protected:
    Addr resolveLocation(Addr phys) const override;

    /** Cache-mode service of one access. */
    Cycle cacheModeAccess(std::uint64_t group, std::uint32_t logical,
                          Addr seg_off, AccessType type, Cycle when,
                          bool &stacked_hit);

    /** Evict the cached segment (writeback if dirty) and clear. */
    void dropCached(std::uint64_t group, Cycle when,
                    bool fill_driven);

    /** Fill logical @p l of @p group into the stacked slot. */
    void fillCached(std::uint64_t group, std::uint32_t l, Cycle when);

    /** Reuse filter: should this cache-mode miss trigger a fill? */
    bool fillGate(std::uint64_t group, std::uint32_t logical,
                  Addr phys, Cycle when);

    /** Record one cache-mode access for burst-length tracking. */
    void noteCacheBurst(BurstRel rel);

    /**
     * Spatial fill throttle: a segment fill pays for itself through
     * the rest of the burst that triggered it (a 2KiB fill prefetches
     * up to 31 future blocks of a sequential walk). The controller
     * tracks the mean cache-mode burst length and fills on first
     * touch (the paper's no-threshold behaviour) while bursts are
     * long enough to amortize the fill; for short-burst (pointer-
     * chasing) patterns it falls back to a one-reuse-burst filter so
     * fills never amplify traffic 32x with nothing to show for it.
     */
    static constexpr double spatialFillThreshold = 6.0;
    static constexpr std::uint64_t burstWindow = 32768;
    std::uint64_t cacheAccessCount = 0;
    std::uint64_t cacheBurstCount = 1;
    bool fillAggressive = true;

    /** Clear a segment's physical storage (security, §V-D2). */
    void clearSegment(std::uint64_t group, std::uint32_t phys_slot);

    std::vector<SrrtAugment> aug;
    ChameleonStats chamData;
};

} // namespace chameleon

#endif // CHAMELEON_CORE_CHAMELEON_HH
