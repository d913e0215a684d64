/**
 * @file
 * Abstract interface for a heterogeneous memory organization: the
 * hardware between the LLC and the two DRAM pools. Concrete designs
 * are the paper's comparison points (flat DDR baselines, Alloy cache,
 * PoM, Polymorphic memory) and the contribution itself (Chameleon and
 * Chameleon-Opt in src/core).
 *
 * Every organization also carries an optional *functional* data layer:
 * a sparse 64-bit-value-per-64B-block store keyed by *device location*
 * (not OS-visible address). Data physically moves when the controller
 * swaps, fills, writes back or clears segments, so tests can verify
 * against a shadow memory that no remapping path ever loses or leaks
 * bytes. Timing-only runs leave it disabled for speed. The store is a
 * FlatMap (open addressing, one probe per 64B access in the common
 * case) because it sits on the per-reference hot path.
 *
 * Thread-compatible, not thread-safe: each parallel sweep run owns
 * its organization; never share one across SweepRunner workers.
 */

#ifndef CHAMELEON_MEMORG_MEM_ORGANIZATION_HH
#define CHAMELEON_MEMORG_MEM_ORGANIZATION_HH

#include <cstdint>
#include <optional>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "dram/dram_device.hh"
#include "os/isa_hooks.hh"

namespace chameleon
{

class FaultInjector;
class TraceSink;

/** Result of one demand access through an organization. */
struct MemAccessResult
{
    /** Completion cycle of the critical word. */
    Cycle done = 0;
    /** Serviced by stacked DRAM (the paper's "stacked DRAM hit"). */
    bool stackedHit = false;
};

/** Counters shared by all organizations. */
struct MemOrgStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t stackedServed = 0;
    std::uint64_t offchipServed = 0;
    /**
     * Bidirectional segment exchanges: PoM-mode hot swaps plus
     * cache-mode dirty-evict fills (§VI-B counts those as swaps).
     */
    std::uint64_t swaps = 0;
    /** Cache-mode segment fills (clean evictions included). */
    std::uint64_t fills = 0;
    /** Dirty cache-mode segments written back. */
    std::uint64_t writebacks = 0;
    /** Segment moves initiated by ISA-Alloc/ISA-Free transitions. */
    std::uint64_t isaMoves = 0;
    /** Sum over reads of (completion - issue), for AMAL. */
    std::uint64_t latencySum = 0;

    double
    stackedHitRate() const
    {
        const std::uint64_t total = stackedServed + offchipServed;
        return total ? static_cast<double>(stackedServed) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double
    avgMemLatency() const
    {
        return reads ? static_cast<double>(latencySum) /
                           static_cast<double>(reads)
                     : 0.0;
    }
};

/**
 * Base class: owns the two device handles, the stats block and the
 * functional data store. @ref stacked may be null for organizations
 * that have no fast memory (the flat DDR baselines).
 */
class MemOrganization : public IsaListener
{
  public:
    MemOrganization(DramDevice *stacked, DramDevice *offchip);
    ~MemOrganization() override = default;

    MemOrganization(const MemOrganization &) = delete;
    MemOrganization &operator=(const MemOrganization &) = delete;

    /** Bytes of physical memory the OS may allocate. */
    virtual std::uint64_t osVisibleBytes() const = 0;

    /** Perform one 64B demand access at OS-visible address @p phys. */
    virtual MemAccessResult access(Addr phys, AccessType type,
                                   Cycle when) = 0;

    /** Human-readable design name for reports. */
    virtual const char *name() const = 0;

    /**
     * Read-only hint: start loading the metadata an access() to
     * OS-visible @p phys would read (remapping entry, cache tag), so
     * that access finds it in the host cache. It writes nothing, takes
     * no lock and ignores an out-of-range @p phys, so no result can
     * depend on whether or when it is called. Flat designs have no
     * metadata: the default does nothing.
     */
    virtual void prefetch(Addr /*phys*/) const {}

    /** Default ISA hooks: organizations that do not use them ignore
     *  the notifications (PoM, Alloy, flat). */
    std::uint64_t isaSegmentBytes() const override { return 2048; }
    void isaAlloc(Addr, Cycle) override {}
    void isaFree(Addr, Cycle) override {}

    /**
     * OS page migration (AutoNUMA): the page's bytes move from the
     * frame at @p src_base to the one at @p dst_base. The base
     * implementation relocates the functional data so migrations are
     * value-preserving under the shadow oracle; timing is already
     * charged by the OS's migration machinery.
     */
    void isaMigrate(Addr src_base, Addr dst_base, std::uint64_t bytes,
                    Cycle when) override;

    const MemOrgStats &stats() const { return statsData; }
    void resetStats();

    /**
     * Retire the stacked segment backing OS-visible address @p phys:
     * evict/write back any cached or swapped-in data it holds, pin
     * its group out of cache mode and stop using its storage. Returns
     * true if the organization retired it (false: not applicable, or
     * already retired). Organizations without remappable stacked
     * segments (flat, Alloy) ignore the request; the OS-level frame
     * blacklist still applies.
     */
    virtual bool retireAt(Addr /*phys*/, Cycle /*when*/)
    {
        return false;
    }

    /** Stacked segments retired so far (capacity degradation). */
    virtual std::uint64_t retiredSegmentCount() const { return 0; }

    /** Attach the fault injector (SRRT metadata ECC sampling). */
    void setFaultInjector(FaultInjector *injector) { faults = injector; }

    /**
     * Attach a trace sink; reconfiguration events (mode switches,
     * swaps, fills, retirements) are recorded through it. Null (the
     * default) compiles every instrumentation site down to one
     * untaken branch.
     */
    void setTraceSink(TraceSink *sink) { trace = sink; }

    /** Enable the functional data layer (tests). */
    void enableFunctional(bool on) { functionalOn = on; }
    bool functionalEnabled() const { return functionalOn; }

    /**
     * Pre-size the functional store for a workload touching
     * @p footprint_bytes, so the hot path never rehashes mid-run.
     * No-op while the layer is disabled.
     */
    void reserveFunctional(std::uint64_t footprint_bytes);

    /**
     * Functionally store @p value at OS-visible address @p phys
     * (64B-block granularity; the block's current device location is
     * resolved through the organization's mapping).
     */
    void functionalWrite(Addr phys, std::uint64_t value);

    /** Functionally load the block value at OS-visible @p phys. */
    std::optional<std::uint64_t> functionalRead(Addr phys);

    /**
     * Device-location encoding for the functional store: stacked
     * locations are [0, S), off-chip locations are offset by 1<<48.
     * Public so the verify/ invariant checker can compare data at
     * two device locations (e.g. a clean cached copy vs its home).
     */
    static constexpr Addr offchipLocBase = 1ull << 48;

    static Addr
    stackedLoc(Addr device_addr)
    {
        return device_addr;
    }

    static Addr
    offchipLoc(Addr device_addr)
    {
        return offchipLocBase + device_addr;
    }

    /**
     * Functional block value at device location @p loc (no address
     * resolution — the caller names the physical storage directly).
     * nullopt while the layer is off or the block was never written.
     */
    std::optional<std::uint64_t> functionalPeekLoc(Addr loc) const;

  protected:
    /**
     * Resolve an OS-visible address to the device location a read
     * would be served from right now.
     */
    virtual Addr resolveLocation(Addr phys) const = 0;

    /** Timed 64B access helpers (update served counters). */
    Cycle
    stackedAccess(Addr device_addr, AccessType type, Cycle when)
    {
        if (!stacked) [[unlikely]]
            noStackedDevice();
        return stacked->access(device_addr, type, when);
    }

    Cycle
    offchipAccess(Addr device_addr, AccessType type, Cycle when)
    {
        return offchip->access(device_addr, type, when);
    }

    /** Record a demand access outcome into the stats block. */
    void
    recordDemand(AccessType type, Cycle issued, Cycle done,
                 bool stacked_hit)
    {
        if (type == AccessType::Read) {
            ++statsData.reads;
            statsData.latencySum += done - issued;
        } else {
            ++statsData.writes;
        }
        if (stacked_hit)
            ++statsData.stackedServed;
        else
            ++statsData.offchipServed;
    }

    /** Functional block movement, no-ops when the layer is off. */
    void funcMove(Addr src_loc, Addr dst_loc, std::uint64_t bytes);
    void funcCopy(Addr src_loc, Addr dst_loc, std::uint64_t bytes);
    void funcSwap(Addr loc_a, Addr loc_b, std::uint64_t bytes);
    void funcClear(Addr loc, std::uint64_t bytes);

    DramDevice *stacked;
    DramDevice *offchip;
    FaultInjector *faults = nullptr;
    TraceSink *trace = nullptr;
    MemOrgStats statsData;

  private:
    [[noreturn]] void noStackedDevice() const;

    bool functionalOn = false;
    FlatMap<Addr, std::uint64_t> blockData;
};

} // namespace chameleon

#endif // CHAMELEON_MEMORG_MEM_ORGANIZATION_HH
