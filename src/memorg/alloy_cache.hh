/**
 * @file
 * Alloy Cache (Qureshi & Loh, MICRO 2012) — the paper's
 * latency-optimized DRAM-cache comparison point.
 *
 * The stacked DRAM is a direct-mapped cache with 64B lines organized
 * as TADs (Tag-And-Data): one stacked access streams the tag together
 * with the data, so a hit costs a single stacked DRAM access and a
 * miss additionally pays one off-chip access plus the fill. The cache
 * duplicates data, so the OS-visible capacity is only the off-chip
 * pool — exactly the capacity loss Chameleon is designed to avoid.
 *
 * Tag/valid/dirty state physically lives in the TADs; the model keeps
 * a controller-side mirror of it for simulation, and charges the
 * extra TAD burst bandwidth on every stacked access.
 */

#ifndef CHAMELEON_MEMORG_ALLOY_CACHE_HH
#define CHAMELEON_MEMORG_ALLOY_CACHE_HH

#include <vector>

#include "memorg/mem_organization.hh"

namespace chameleon
{

/** Alloy cache tuning. */
struct AlloyConfig
{
    /** Cache line size (Alloy uses 64B). */
    std::uint64_t lineBytes = 64;
    /**
     * Fraction of stacked capacity usable for data once TAD overhead
     * (8B tag per 64B line -> 64/72) is paid.
     */
    double tadEfficiency = 64.0 / 72.0;
    /**
     * Memory Access Predictor (MAP) entries; on a predicted miss the
     * off-chip access is issued in parallel with the TAD probe
     * (Alloy's latency optimization). 0 disables the predictor;
     * otherwise a power of two, so the page index is masked.
     */
    std::uint32_t predictorEntries = 4096;
};

/** Direct-mapped latency-optimized DRAM cache. */
class AlloyCache : public MemOrganization
{
  public:
    AlloyCache(DramDevice *stacked, DramDevice *offchip,
               const AlloyConfig &config = AlloyConfig());

    std::uint64_t osVisibleBytes() const override;
    MemAccessResult access(Addr phys, AccessType type,
                           Cycle when) override;
    const char *name() const override;
    /** Warms the line's tag mirror and its MAP counter. */
    void prefetch(Addr phys) const override;

    /** Number of cache sets (== lines, direct-mapped). */
    std::uint64_t numLines() const { return lines.size(); }

    /** Controller-side tag/valid/dirty mirror of one line
     *  (verify/ invariant checker; tests). */
    struct LineView
    {
        Addr tag = invalidAddr;
        bool valid = false;
        bool dirty = false;
    };

    LineView
    lineView(std::uint64_t index) const
    {
        const Line &l = lines[index];
        return LineView{l.tag, l.valid, l.dirty};
    }

    /** Line (set) index covering OS-visible @p phys. */
    std::uint64_t lineIndexOf(Addr phys) const
    {
        return locate(phys).index;
    }

    /** OS-visible home address of valid line @p index. */
    Addr
    lineHomeAddr(std::uint64_t index) const
    {
        return (lines[index].tag * lines.size() + index) * cfg.lineBytes;
    }

  protected:
    Addr resolveLocation(Addr phys) const override;

  private:
    struct Line
    {
        Addr tag = invalidAddr;
        bool valid = false;
        bool dirty = false;
    };

    /** Set index and tag of one OS-visible address. */
    struct LineRef
    {
        std::uint64_t index;
        Addr tag;
    };

    LineRef locate(Addr phys) const;

    /** MAP lookup: true when the access is predicted to hit. */
    bool predictHit(Addr phys) const;
    void trainPredictor(Addr phys, bool hit);

    AlloyConfig cfg;
    std::vector<Line> lines;
    /** Divides a line-sized block number by lines.size(). */
    Divider32 lineDiv;
    /** 2-bit saturating hit predictors, page-indexed. */
    std::vector<std::uint8_t> predictor;
};

} // namespace chameleon

#endif // CHAMELEON_MEMORG_ALLOY_CACHE_HH
