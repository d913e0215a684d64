#include "os/mini_os.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/trace_sink.hh"

namespace chameleon
{

MiniOs::MiniOs(const OsConfig &config, IsaListener *listener)
    : cfg(config), frames(config.frames), isa(listener)
{
}

std::uint64_t
MiniOs::segmentBytes() const
{
    return isa ? isa->isaSegmentBytes() : 2048;
}

void
MiniOs::setTraceSink(TraceSink *sink)
{
    trace = sink;
    frames.setTraceSink(sink);
}

void
MiniOs::badProcess(ProcId pid)
{
    panic("MiniOs: bad process id %u", pid);
}

ProcId
MiniOs::createProcess(std::string name, std::uint64_t footprint_bytes,
                      bool use_thp)
{
    Process proc;
    proc.name = std::move(name);
    proc.footprint = footprint_bytes;
    proc.useThp = use_thp;
    proc.alive = true;
    proc.ptes.resize(ceilDiv(footprint_bytes, pageBytes));
    processes.push_back(std::move(proc));
    return static_cast<ProcId>(processes.size() - 1);
}

std::uint64_t
MiniOs::pageCount(ProcId pid) const
{
    return procRef(pid).ptes.size();
}

void
MiniOs::emitAllocs(Addr page_base, std::uint64_t bytes, Cycle when)
{
    if (!cfg.emitIsaHooks || !isa)
        return;
    const std::uint64_t seg = isa->isaSegmentBytes();
    for (std::uint64_t off = 0; off < bytes; off += seg) {
        isa->isaAlloc(page_base + off, when);
        ++statsData.isaAllocs;
        TraceSink::emit(trace, when, TraceKind::IsaAlloc,
                        page_base + off);
    }
}

void
MiniOs::emitFrees(Addr page_base, std::uint64_t bytes, Cycle when)
{
    if (!cfg.emitIsaHooks || !isa)
        return;
    const std::uint64_t seg = isa->isaSegmentBytes();
    for (std::uint64_t off = 0; off < bytes; off += seg) {
        isa->isaFree(page_base + off, when);
        ++statsData.isaFrees;
        TraceSink::emit(trace, when, TraceKind::IsaFree,
                        page_base + off);
    }
}

void
MiniOs::addToClock(ProcId pid, std::uint64_t vpn, Pte &pte)
{
    pte.clockSlot = static_cast<std::uint32_t>(residentList.size());
    residentList.push_back({pid, vpn, true});
}

void
MiniOs::removeFromClock(Pte &pte)
{
    if (pte.clockSlot == ~0u)
        return;
    residentList[pte.clockSlot].valid = false;
    ++invalidClockEntries;
    pte.clockSlot = ~0u;
    if (invalidClockEntries > residentList.size() / 2 &&
        invalidClockEntries > 1024)
        compactClock();
}

void
MiniOs::compactClock()
{
    std::vector<ClockEntry> fresh;
    fresh.reserve(residentList.size() - invalidClockEntries);
    for (const auto &e : residentList) {
        if (!e.valid)
            continue;
        Pte &pte = processes[e.pid].ptes[e.vpn];
        pte.clockSlot = static_cast<std::uint32_t>(fresh.size());
        fresh.push_back(e);
    }
    residentList = std::move(fresh);
    invalidClockEntries = 0;
    clockHand = residentList.empty() ? 0
                                     : clockHand % residentList.size();
}

void
MiniOs::mapPage(Process &proc, ProcId pid, std::uint64_t vpn, Addr pfn,
                bool huge)
{
    Pte &pte = proc.ptes[vpn];
    pte.pfn = pfn;
    pte.resident = true;
    pte.onDisk = false;
    pte.dirty = false;
    pte.referenced = true;
    pte.huge = huge;
    addToClock(pid, vpn, pte);
}

bool
MiniOs::evictOnePage(Cycle when)
{
    if (residentList.empty())
        return false;
    // Clock second-chance over the global resident list.
    const std::size_t limit = residentList.size() * 2 + 1;
    for (std::size_t step = 0; step < limit; ++step) {
        if (clockHand >= residentList.size())
            clockHand = 0;
        ClockEntry &entry = residentList[clockHand];
        ++clockHand;
        if (!entry.valid)
            continue;
        Process &proc = processes[entry.pid];
        Pte &pte = proc.ptes[entry.vpn];
        if (pte.referenced) {
            pte.referenced = false;
            continue;
        }
        // Victim found. THP-backed pages are split first (Linux
        // splits huge pages under reclaim pressure).
        if (pte.huge) {
            const Addr huge_base = pte.pfn & ~(hugePageBytes - 1);
            frames.splitHuge(huge_base);
            const std::uint64_t vpn_base =
                entry.vpn & ~(framesPerChunk - 1);
            for (std::uint64_t i = 0; i < framesPerChunk; ++i) {
                if (vpn_base + i < proc.ptes.size())
                    proc.ptes[vpn_base + i].huge = false;
            }
            std::erase(proc.hugeFrames, huge_base);
        }
        const Addr pfn = pte.pfn;
        pte.resident = false;
        pte.onDisk = true;
        pte.pfn = invalidAddr;
        removeFromClock(pte);
        frames.freePage(pfn);
        emitFrees(pfn, pageBytes, when);
        ++statsData.swapOuts;
        TraceSink::emit(trace, when, TraceKind::SwapOut, entry.pid,
                        entry.vpn, pfn);
        return true;
    }
    return false;
}

std::optional<Addr>
MiniOs::obtainFrame(Cycle when, bool &evicted,
                    std::optional<MemNode> zone)
{
    evicted = false;
    auto frame = frames.allocPage(zone);
    if (frame)
        return frame;
    if (zone) {
        // Zone-restricted requests (migration) do not trigger
        // reclaim: AutoNUMA fails with -ENOMEM instead.
        return std::nullopt;
    }
    while (!frame) {
        if (!evictOnePage(when))
            return std::nullopt;
        evicted = true;
        frame = frames.allocPage(zone);
    }
    return frame;
}

void
MiniOs::preAllocate(ProcId pid, Cycle when)
{
    Process &proc = procRef(pid);
    const std::uint64_t pages = proc.ptes.size();
    std::uint64_t vpn = 0;
    while (vpn < pages) {
        Pte &pte = proc.ptes[vpn];
        if (pte.resident || pte.onDisk) {
            ++vpn;
            continue;
        }
        // THP path (Algorithm 1, GFP_TRANSHUGE): whole aligned 2MiB
        // regions get a huge frame when one is available.
        if (proc.useThp && vpn % framesPerChunk == 0 &&
            vpn + framesPerChunk <= pages) {
            if (auto huge = frames.allocHuge()) {
                proc.hugeFrames.push_back(*huge);
                for (std::uint64_t i = 0; i < framesPerChunk; ++i)
                    mapPage(proc, pid, vpn + i,
                            *huge + i * pageBytes, true);
                emitAllocs(*huge, hugePageBytes, when);
                ++statsData.thpAllocs;
                vpn += framesPerChunk;
                continue;
            }
            ++statsData.thpFallbacks;
        }
        if (auto frame = frames.allocPage()) {
            mapPage(proc, pid, vpn, *frame, false);
            emitAllocs(*frame, pageBytes, when);
        } else {
            // Physical memory exhausted: the rest of the footprint
            // starts life on swap and will fault in on first touch.
            pte.onDisk = true;
        }
        ++vpn;
    }
}

void
MiniOs::destroyProcess(ProcId pid, Cycle when)
{
    Process &proc = procRef(pid);
    // Free huge frames wholesale first.
    for (Addr huge : proc.hugeFrames) {
        frames.freeHuge(huge);
        emitFrees(huge, hugePageBytes, when);
    }
    for (std::uint64_t vpn = 0; vpn < proc.ptes.size(); ++vpn) {
        Pte &pte = proc.ptes[vpn];
        if (pte.resident) {
            removeFromClock(pte);
            if (!pte.huge) {
                frames.freePage(pte.pfn);
                emitFrees(pte.pfn, pageBytes, when);
            }
        }
        pte = Pte();
    }
    proc.hugeFrames.clear();
    proc.alive = false;
    proc.ptes.clear();
}

Translation
MiniOs::translateSlow(ProcId pid, Addr vaddr, AccessType type, Cycle when)
{
    Process &proc = procRef(pid);
    if (vaddr >= proc.footprint)
        panic("MiniOs: %s access %#llx beyond footprint %#llx",
              proc.name.c_str(),
              static_cast<unsigned long long>(vaddr),
              static_cast<unsigned long long>(proc.footprint));

    const std::uint64_t vpn = vaddr / pageBytes;
    Pte &pte = proc.ptes[vpn];
    Translation result;

    if (!pte.resident) {
        bool evicted = false;
        if (pte.onDisk) {
            // Major fault: bring the page back from the SSD.
            auto frame = obtainFrame(when, evicted);
            if (!frame)
                fatal("MiniOs: out of memory and nothing evictable");
            mapPage(proc, pid, vpn, *frame, false);
            emitAllocs(*frame, pageBytes, when);
            result.stall = cfg.majorFaultLatency;
            result.majorFault = true;
            ++statsData.majorFaults;
            ++statsData.swapIns;
            TraceSink::emit(trace, when, TraceKind::MajorFault, pid,
                            vpn);
        } else {
            // Minor fault: demand-zero mapping on first touch.
            auto frame = obtainFrame(when, evicted);
            if (!frame)
                fatal("MiniOs: out of memory and nothing evictable");
            mapPage(proc, pid, vpn, *frame, false);
            emitAllocs(*frame, pageBytes, when);
            result.stall = cfg.minorFaultLatency;
            result.minorFault = true;
            ++statsData.minorFaults;
            TraceSink::emit(trace, when, TraceKind::MinorFault, pid,
                            vpn);
        }
    }

    pte.referenced = true;
    if (type == AccessType::Write)
        pte.dirty = true;
    result.phys = pte.pfn + (vaddr & (pageBytes - 1));
    return result;
}

bool
MiniOs::migratePage(ProcId pid, std::uint64_t vpn, MemNode target,
                    Cycle when)
{
    Process &proc = procRef(pid);
    if (vpn >= proc.ptes.size())
        panic("MiniOs: migrate of bad vpn %llu",
              static_cast<unsigned long long>(vpn));
    Pte &pte = proc.ptes[vpn];
    if (!pte.resident)
        return false;
    if (frames.nodeOf(pte.pfn) == target)
        return true;
    if (pte.huge)
        return false; // Linux AutoNUMA skips THPs pre-split.

    bool evicted = false;
    auto frame = obtainFrame(when, evicted, target);
    if (!frame) {
        ++statsData.migrationFailures;
        return false;
    }
    const Addr old_pfn = pte.pfn;
    removeFromClock(pte);
    frames.freePage(old_pfn);
    emitFrees(old_pfn, pageBytes, when);
    const bool was_dirty = pte.dirty;
    mapPage(proc, pid, vpn, *frame, false);
    pte.dirty = was_dirty;
    emitAllocs(*frame, pageBytes, when);
    if (cfg.emitIsaHooks && isa)
        isa->isaMigrate(old_pfn, *frame, pageBytes, when);
    ++statsData.migrations;
    TraceSink::emit(trace, when, TraceKind::PageMigration, pid,
                    old_pfn, *frame);
    return true;
}

void
MiniOs::isaRetire(Addr frame_base, Cycle when)
{
    ++statsData.isaRetires;
    if (frames.isRetired(frame_base))
        return;
    TraceSink::emit(trace, when, TraceKind::IsaRetire, frame_base);
    if (frames.isAllocated(frame_base)) {
        // Evict the page resident in the failing frame, exactly like
        // a reclaim victim: its contents survive on swap and fault
        // back into a healthy frame on next touch.
        for (auto &entry : residentList) {
            if (!entry.valid)
                continue;
            Process &proc = processes[entry.pid];
            Pte &pte = proc.ptes[entry.vpn];
            if (pte.pfn != frame_base)
                continue;
            if (pte.huge) {
                const Addr huge_base = pte.pfn & ~(hugePageBytes - 1);
                frames.splitHuge(huge_base);
                const std::uint64_t vpn_base =
                    entry.vpn & ~(framesPerChunk - 1);
                for (std::uint64_t i = 0; i < framesPerChunk; ++i) {
                    if (vpn_base + i < proc.ptes.size())
                        proc.ptes[vpn_base + i].huge = false;
                }
                std::erase(proc.hugeFrames, huge_base);
            }
            pte.resident = false;
            pte.onDisk = true;
            pte.pfn = invalidAddr;
            removeFromClock(pte);
            frames.freePage(frame_base);
            emitFrees(frame_base, pageBytes, when);
            ++statsData.swapOuts;
            TraceSink::emit(trace, when, TraceKind::SwapOut,
                            entry.pid, entry.vpn, frame_base);
            break;
        }
    }
    frames.retireFrame(frame_base, when);
}

std::optional<MemNode>
MiniOs::pageNode(ProcId pid, std::uint64_t vpn) const
{
    const Process &proc = procRef(pid);
    if (vpn >= proc.ptes.size() || !proc.ptes[vpn].resident)
        return std::nullopt;
    return frames.nodeOf(proc.ptes[vpn].pfn);
}

} // namespace chameleon
