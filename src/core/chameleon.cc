#include "core/chameleon.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/trace_sink.hh"

namespace chameleon
{

namespace
{

constexpr auto trigIsaAlloc =
    static_cast<std::uint64_t>(ModeSwitchTrigger::IsaAlloc);
constexpr auto trigIsaFree =
    static_cast<std::uint64_t>(ModeSwitchTrigger::IsaFree);
constexpr auto trigRetire =
    static_cast<std::uint64_t>(ModeSwitchTrigger::Retire);

} // namespace

ChameleonMemory::ChameleonMemory(DramDevice *stacked_dev,
                                 DramDevice *offchip_dev,
                                 const PomConfig &config)
    : PomMemory(stacked_dev, offchip_dev, config),
      aug(segSpace.numGroups())
{
}

const char *
ChameleonMemory::name() const
{
    return "chameleon";
}

void
ChameleonMemory::prefetch(Addr phys) const
{
    if (phys >= segSpace.osVisibleBytes())
        return;
    const std::uint64_t group = segSpace.groupOf(phys);
    __builtin_prefetch(&table[group], 1);
    __builtin_prefetch(&aug[group], 1);
}

double
ChameleonMemory::cacheModeFraction() const
{
    std::uint64_t cached = 0;
    for (const auto &a : aug)
        if (a.mode == GroupMode::Cache)
            ++cached;
    return static_cast<double>(cached) /
           static_cast<double>(aug.size());
}

void
ChameleonMemory::clearSegment(std::uint64_t group,
                              std::uint32_t phys_slot)
{
    funcClear(slotLocation(group, phys_slot), cfg.segmentBytes);
    ++chamData.segmentClears;
}

void
ChameleonMemory::dropCached(std::uint64_t group, Cycle when,
                            bool fill_driven)
{
    SrrtAugment &a = aug[group];
    if (!a.hasCached())
        return;
    const std::uint32_t c = a.cachedSlot;
    if (a.dirty) {
        // Write the modified cached segment back to its off-chip
        // location. Together with the subsequent fill this consumes
        // both memories' bandwidth, so §VI-B counts it as a swap.
        const std::uint32_t home_slot = table[group].perm[c];
        stacked->bulkTransfer(segSpace.deviceAddr(group, 0),
                              cfg.segmentBytes, AccessType::Read, when);
        offchip->bulkTransfer(segSpace.deviceAddr(group, home_slot),
                              cfg.segmentBytes, AccessType::Write,
                              when);
        funcCopy(slotLocation(group, 0),
                 slotLocation(group, home_slot), cfg.segmentBytes);
        ++statsData.writebacks;
        TraceSink::emit(trace, when, TraceKind::Writeback, group, c);
        if (fill_driven)
            ++statsData.swaps;
        else
            ++statsData.isaMoves;
    }
    funcClear(slotLocation(group, 0), cfg.segmentBytes);
    a.cachedSlot = noCachedSlot;
    a.dirty = false;
}

void
ChameleonMemory::fillCached(std::uint64_t group, std::uint32_t l,
                            Cycle when)
{
    SrrtAugment &a = aug[group];
    const std::uint32_t src_slot = table[group].perm[l];
    offchip->bulkTransfer(segSpace.deviceAddr(group, src_slot),
                          cfg.segmentBytes, AccessType::Read, when);
    stacked->bulkTransfer(segSpace.deviceAddr(group, 0),
                          cfg.segmentBytes, AccessType::Write, when);
    funcCopy(slotLocation(group, src_slot), slotLocation(group, 0),
             cfg.segmentBytes);
    a.cachedSlot = static_cast<std::uint8_t>(l);
    a.dirty = false;
    ++statsData.fills;
    TraceSink::emit(trace, when, TraceKind::CacheFill, group, l);
}

void
ChameleonMemory::noteCacheBurst(BurstRel rel)
{
    // Spatial-extent statistic: only sequential advances extend a
    // burst; temporal repeats to one block are length-1 events (they
    // are satisfied by a single cached block, not a 2KiB fill).
    ++cacheAccessCount;
    if (rel != BurstRel::SeqAdvance)
        ++cacheBurstCount;
    if (cacheAccessCount >= burstWindow) {
        const double avg_len =
            static_cast<double>(cacheAccessCount) /
            static_cast<double>(cacheBurstCount);
        fillAggressive = avg_len >= spatialFillThreshold;
        cacheAccessCount /= 2;
        cacheBurstCount = std::max<std::uint64_t>(cacheBurstCount / 2,
                                                  1);
    }
}

bool
ChameleonMemory::fillGate(std::uint64_t group, std::uint32_t logical,
                          Addr phys, Cycle when)
{
    SrtEntry &e = table[group];
    const BurstRel rel = burstRelation(e, phys);
    noteCacheBurst(rel);
    if (rel == BurstRel::SeqAdvance)
        return false; // continuation of the burst that just filled
    if (!cfg.cacheFillReuseFilter)
        return true;
    (void)when;
    if (fillAggressive)
        return true; // spatial pattern: the paper's no-threshold fill
    // Throttled: fall back to the PoM competing-counter discipline
    // (the cached segment defends its slot; a challenger needs
    // swapThreshold net wins), so non-spatial patterns pay no more
    // movement than the PoM baseline would.
    if (e.counter == 0) {
        e.candidate = static_cast<std::uint8_t>(logical);
        e.counter = 1;
        return false;
    }
    if (e.candidate == logical) {
        if (++e.counter >= cfg.swapThreshold) {
            e.counter = 0;
            return true;
        }
        return false;
    }
    --e.counter;
    return false;
}

Cycle
ChameleonMemory::cacheModeAccess(std::uint64_t group,
                                 std::uint32_t logical, Addr seg_off,
                                 AccessType type, Cycle when,
                                 bool &stacked_hit)
{
    SrrtAugment &a = aug[group];
    const Cycle issue = srtLookup(group, when);

    if (a.hasCached() && a.cachedSlot == logical) {
        // Cache-mode stacked hit. The cached segment defends its slot
        // against fill candidates on each fresh burst.
        SrtEntry &e = table[group];
        const BurstRel rel = burstRelation(
            e, segSpace.homeAddr(group, logical) + seg_off);
        noteCacheBurst(rel);
        if (rel != BurstRel::SeqAdvance && e.counter > 0)
            --e.counter;
        stacked_hit = true;
        ++chamData.cacheHits;
        if (type == AccessType::Write)
            a.dirty = true;
        return stackedAccess(segSpace.deviceAddr(group, 0) + seg_off,
                             type, issue);
    }

    // Cache-mode miss: serve from the segment's current off-chip
    // location, then refresh the cached segment. There is no PoM-style
    // multi-access swap threshold in cache mode (§VI-B); a one-burst
    // reuse filter guards against zero-reuse traffic amplification.
    stacked_hit = false;
    ++chamData.cacheMisses;
    const std::uint32_t slot = table[group].perm[logical];
    const Cycle done = slotAccess(group, slot, seg_off, type, issue);
    // Write-around: posted write misses complete off-chip without
    // pulling a whole segment in; only read misses allocate.
    if (type == AccessType::Read &&
        fillGate(group, logical,
                 segSpace.homeAddr(group, logical) + seg_off, when)) {
        dropCached(group, done, true);
        fillCached(group, logical, done);
    }
    return done;
}

MemAccessResult
ChameleonMemory::access(Addr phys, AccessType type, Cycle when)
{
    if (phys >= segSpace.osVisibleBytes())
        panic("%s: access %#llx beyond OS-visible space", name(),
              static_cast<unsigned long long>(phys));

    const std::uint64_t group = segSpace.groupOf(phys);
    if (aug[group].mode == GroupMode::Pom)
        return PomMemory::access(phys, type, when);

    const std::uint32_t logical = segSpace.slotOf(phys);
    const Addr seg_off = segSpace.offsetOf(phys);

    MemAccessResult result;
    if (logical == 0 || !aug[group].isAllocated(logical)) {
        // OS access to a segment it freed: serve it from wherever the
        // segment lives, but never cache OS-free data.
        const std::uint32_t slot = table[group].perm[logical];
        result.done = slotAccess(group, slot, seg_off, type,
                                 srtLookup(group, when));
        result.stackedHit = SegmentSpace::slotIsStacked(slot);
    } else {
        result.done = cacheModeAccess(group, logical, seg_off, type,
                                      when, result.stackedHit);
    }
    recordDemand(type, when, result.done, result.stackedHit);
    return result;
}

void
ChameleonMemory::isaAlloc(Addr seg_base, Cycle when)
{
    ++chamData.isaAllocsSeen;
    const std::uint64_t group = segSpace.groupOf(seg_base);
    const std::uint32_t logical = segSpace.slotOf(seg_base);
    SrrtAugment &a = aug[group];
    a.setAllocated(logical, true);

    if (logical != 0) {
        // Fig 8 flow 1-2-4-5: off-chip alloc, continue in the
        // previous mode. Fresh allocations read as zeros.
        clearSegment(group, table[group].perm[logical]);
        return;
    }

    // Stacked-range alloc: the group leaves cache mode (Fig 8 flows
    // 1-2-3-{6,7}-8). Write back any cached off-chip segment first.
    if (a.mode != GroupMode::Cache) {
        warn("chameleon: ISA-Alloc for already-allocated stacked "
             "segment in group %llu",
             static_cast<unsigned long long>(group));
        return;
    }
    dropCached(group, when, false);
    clearSegment(group, 0);
    a.mode = GroupMode::Pom;
    table[group].counter = 0;
    table[group].candidate = 0;
    ++chamData.allocTransitions;
    TraceSink::emit(trace, when, TraceKind::ModeSwitch, group,
                    static_cast<std::uint64_t>(GroupMode::Pom),
                    trigIsaAlloc);
}

void
ChameleonMemory::isaFree(Addr seg_base, Cycle when)
{
    ++chamData.isaFreesSeen;
    const std::uint64_t group = segSpace.groupOf(seg_base);
    const std::uint32_t logical = segSpace.slotOf(seg_base);
    SrrtAugment &a = aug[group];
    a.setAllocated(logical, false);

    if (logical != 0) {
        // Fig 10 flow 1-2-4-5: off-chip free, no mode change. Drop a
        // now-dead cached copy and clear the segment (§V-D2).
        if (a.hasCached() && a.cachedSlot == logical) {
            funcClear(slotLocation(group, 0), cfg.segmentBytes);
            a.cachedSlot = noCachedSlot;
            a.dirty = false;
        }
        clearSegment(group, table[group].perm[logical]);
        return;
    }

    if (groupRetired(group)) {
        // The OS is blacklisting the retired frame: the group stays
        // pinned in PoM mode and the dead slot's contents are gone.
        funcClear(slotLocation(group, 0), cfg.segmentBytes);
        return;
    }

    if (a.mode == GroupMode::Cache) {
        warn("chameleon: ISA-Free for already-free stacked segment "
             "in group %llu",
             static_cast<unsigned long long>(group));
        return;
    }

    // Fig 10 flows 1-2-3-{6,7}-8.
    if (table[group].perm[0] != 0) {
        // Fig 11: the freed stacked segment currently lives off-chip;
        // proactively swap it with the stacked resident so the
        // stacked physical slot becomes available for caching.
        hotSwap(group, 0, table[group].inv[0], when);
        ++statsData.isaMoves;
    }
    clearSegment(group, 0);
    a.mode = GroupMode::Cache;
    a.cachedSlot = noCachedSlot;
    a.dirty = false;
    table[group].counter = 0;
    table[group].candidate = 0;
    ++chamData.freeTransitions;
    TraceSink::emit(trace, when, TraceKind::ModeSwitch, group,
                    static_cast<std::uint64_t>(GroupMode::Cache),
                    trigIsaFree);
}

bool
ChameleonMemory::retireAt(Addr phys, Cycle when)
{
    const std::uint64_t group = segSpace.groupOf(phys);
    if (groupRetired(group))
        return false;
    // Evict the cached off-chip segment (write back if dirty): its
    // only copy may live in the dying stacked slot. Then pin the
    // group in PoM mode — retired groups never re-enter cache mode,
    // so nothing fills into the dead storage.
    dropCached(group, when, false);
    if (aug[group].mode != GroupMode::Pom)
        TraceSink::emit(trace, when, TraceKind::ModeSwitch, group,
                        static_cast<std::uint64_t>(GroupMode::Pom),
                        trigRetire);
    aug[group].mode = GroupMode::Pom;
    return PomMemory::retireAt(phys, when);
}

Addr
ChameleonMemory::resolveLocation(Addr phys) const
{
    const std::uint64_t group = segSpace.groupOf(phys);
    const std::uint32_t logical = segSpace.slotOf(phys);
    const SrrtAugment &a = aug[group];
    if (a.mode == GroupMode::Cache && a.hasCached() &&
        a.cachedSlot == logical) {
        return slotLocation(group, 0) + segSpace.offsetOf(phys);
    }
    return PomMemory::resolveLocation(phys);
}

bool
ChameleonMemory::checkInvariants() const
{
    for (std::uint64_t g = 0; g < aug.size(); ++g) {
        const SrrtAugment &a = aug[g];
        const SrtEntry &e = table[g];
        // Permutation sanity.
        for (std::uint32_t s = 0; s < segSpace.slotsPerGroup(); ++s)
            if (e.inv[e.perm[s]] != s)
                return false;
        if (groupRetired(g)) {
            // Retired groups are pinned in PoM mode with logical 0 in
            // the dead stacked slot and nothing cached there.
            if (a.mode != GroupMode::Pom || e.perm[0] != 0)
                return false;
            if (a.hasCached() || a.dirty)
                return false;
            continue;
        }
        // Basic Chameleon: mode mirrors the stacked segment's ABV bit.
        if ((a.mode == GroupMode::Pom) != a.isAllocated(0))
            return false;
        // Cache mode keeps the (free) stacked segment in its slot.
        if (a.mode == GroupMode::Cache && e.perm[0] != 0)
            return false;
        if (a.hasCached()) {
            if (a.mode != GroupMode::Cache)
                return false;
            if (a.cachedSlot == 0 ||
                a.cachedSlot >= segSpace.slotsPerGroup())
                return false;
            if (!a.isAllocated(a.cachedSlot))
                return false;
        }
        if (a.dirty && !a.hasCached())
            return false;
    }
    return true;
}

} // namespace chameleon
