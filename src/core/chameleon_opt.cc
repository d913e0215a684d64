#include "core/chameleon_opt.hh"

#include "common/log.hh"
#include "obs/trace_sink.hh"

namespace chameleon
{

ChameleonOptMemory::ChameleonOptMemory(DramDevice *stacked_dev,
                                       DramDevice *offchip_dev,
                                       const PomConfig &config)
    : ChameleonMemory(stacked_dev, offchip_dev, config)
{
}

const char *
ChameleonOptMemory::name() const
{
    return "chameleon-opt";
}

std::optional<std::uint32_t>
ChameleonOptMemory::findFreeSlot(std::uint64_t group,
                                 std::uint32_t except) const
{
    const SrrtAugment &a = aug[group];
    for (std::uint32_t s = 0; s < segSpace.slotsPerGroup(); ++s)
        if (s != except && !a.isAllocated(s))
            return s;
    return std::nullopt;
}

void
ChameleonOptMemory::remapFreePair(std::uint64_t group, std::uint32_t p,
                                  std::uint32_t q, Cycle when)
{
    // Both segments carry dead data (p was just allocated fresh, q is
    // free), so the proactive remap of Fig 13 is a pure SRRT tag
    // update: no segment-sized transfer is needed, and the cache copy
    // occupying the stacked slot's storage is left untouched.
    table[group].swapLogical(p, q);
    ++statsData.isaMoves;
    TraceSink::emit(trace, when, TraceKind::ProactiveRemap, group, p, q);
}

MemAccessResult
ChameleonOptMemory::access(Addr phys, AccessType type, Cycle when)
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
    if (!aug[group].isAllocated(logical)) {
        // Access to an OS-free segment: serve leniently, no caching.
        const std::uint32_t slot = table[group].perm[logical];
        result.done = slotAccess(group, slot, seg_off, type,
                                 srtLookup(group, when));
        result.stackedHit = SegmentSpace::slotIsStacked(slot);
    } else {
        // Any allocated segment (including the stacked-home one,
        // which lives off-chip in cache mode) is cacheable.
        result.done = cacheModeAccess(group, logical, seg_off, type,
                                      when, result.stackedHit);
    }
    recordDemand(type, when, result.done, result.stackedHit);
    return result;
}

void
ChameleonOptMemory::isaAlloc(Addr seg_base, Cycle when)
{
    ++chamData.isaAllocsSeen;
    const std::uint64_t group = segSpace.groupOf(seg_base);
    const std::uint32_t logical = segSpace.slotOf(seg_base);
    SrrtAugment &a = aug[group];

    if (groupRetired(group)) {
        // Off-chip segments of a retired group remain allocatable;
        // the group just stays pinned in PoM mode with its stacked
        // slot dead. The stacked segment itself is blacklisted by the
        // OS and never re-allocated.
        a.setAllocated(logical, true);
        if (logical != 0)
            clearSegment(group, table[group].perm[logical]);
        return;
    }

    if (a.mode == GroupMode::Pom) {
        warn("chameleon-opt: ISA-Alloc in full group %llu",
             static_cast<unsigned long long>(group));
        a.setAllocated(logical, true);
        return;
    }

    a.setAllocated(logical, true);

    if (table[group].perm[logical] == 0) {
        // The allocated segment nominally sits in the stacked slot:
        // proactively remap it to another free segment's slot so the
        // stacked slot stays cache-capable (Fig 12 flow 7-8, Fig 13).
        if (const auto q = findFreeSlot(group, logical))
            remapFreePair(group, logical, *q, when);
    }

    if (a.allAllocated(segSpace.slotsPerGroup())) {
        // Last free segment gone: switch to PoM mode (Fig 12 box 6).
        // Write the cached segment back *before* clearing the stacked
        // slot the fresh allocation will occupy.
        dropCached(group, when, false);
        clearSegment(group, table[group].perm[logical]);
        a.mode = GroupMode::Pom;
        table[group].counter = 0;
        table[group].candidate = 0;
        ++chamData.allocTransitions;
        TraceSink::emit(
            trace, when, TraceKind::ModeSwitch, group,
            static_cast<std::uint64_t>(GroupMode::Pom),
            static_cast<std::uint64_t>(ModeSwitchTrigger::IsaAlloc));
        return;
    }

    // Fresh allocations read as zeros (§V-D2). In cache mode the
    // allocated segment always lives off-chip at this point, so this
    // never touches the stacked slot's cache-copy storage.
    clearSegment(group, table[group].perm[logical]);
}

void
ChameleonOptMemory::isaFree(Addr seg_base, Cycle when)
{
    ++chamData.isaFreesSeen;
    const std::uint64_t group = segSpace.groupOf(seg_base);
    const std::uint32_t logical = segSpace.slotOf(seg_base);
    SrrtAugment &a = aug[group];

    const bool was_pom = a.mode == GroupMode::Pom;
    a.setAllocated(logical, false);

    if (groupRetired(group)) {
        // Retired groups never transition back to cache mode; the
        // freed segment's storage is simply cleared (the stacked
        // slot's contents are already dead).
        clearSegment(group, table[group].perm[logical]);
        return;
    }

    if (was_pom) {
        // PoM -> cache transition (Fig 14 flows through box 5): make
        // sure the stacked physical slot hosts the freed segment.
        if (table[group].perm[logical] != 0)
            moveSegment(group, table[group].inv[0], logical, when);
        clearSegment(group, 0);
        a.mode = GroupMode::Cache;
        a.cachedSlot = noCachedSlot;
        a.dirty = false;
        table[group].counter = 0;
        table[group].candidate = 0;
        ++chamData.freeTransitions;
        TraceSink::emit(
            trace, when, TraceKind::ModeSwitch, group,
            static_cast<std::uint64_t>(GroupMode::Cache),
            static_cast<std::uint64_t>(ModeSwitchTrigger::IsaFree));
        return;
    }

    // Already in cache mode: drop a now-dead cached copy and clear
    // the freed segment's storage.
    if (a.hasCached() && a.cachedSlot == logical) {
        funcClear(slotLocation(group, 0), cfg.segmentBytes);
        a.cachedSlot = noCachedSlot;
        a.dirty = false;
    }
    clearSegment(group, table[group].perm[logical]);
}

bool
ChameleonOptMemory::checkInvariants() const
{
    for (std::uint64_t g = 0; g < aug.size(); ++g) {
        const SrrtAugment &a = aug[g];
        const SrtEntry &e = table[g];
        for (std::uint32_t s = 0; s < segSpace.slotsPerGroup(); ++s)
            if (e.inv[e.perm[s]] != s)
                return false;
        if (groupRetired(g)) {
            if (a.mode != GroupMode::Pom || e.perm[0] != 0)
                return false;
            if (a.hasCached() || a.dirty)
                return false;
            continue;
        }
        // Opt: PoM mode exactly when every segment is allocated.
        if ((a.mode == GroupMode::Pom) !=
            a.allAllocated(segSpace.slotsPerGroup()))
            return false;
        // Cache mode: the stacked slot hosts a free logical segment.
        if (a.mode == GroupMode::Cache && a.isAllocated(e.inv[0]))
            return false;
        if (a.hasCached()) {
            if (a.mode != GroupMode::Cache)
                return false;
            if (a.cachedSlot >= segSpace.slotsPerGroup())
                return false;
            if (!a.isAllocated(a.cachedSlot))
                return false;
            if (a.cachedSlot == e.inv[0])
                return false;
        }
        if (a.dirty && !a.hasCached())
            return false;
    }
    return true;
}

} // namespace chameleon
