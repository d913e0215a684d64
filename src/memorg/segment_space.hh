/**
 * @file
 * Segment-group geometry for segment-restricted remapping (Fig 6).
 *
 * The OS-visible physical space is the concatenation of the stacked
 * segment homes [0, S) and the off-chip segment homes [S, S+O). With
 * a capacity ratio 1:K there are S/segBytes groups of (1 + K)
 * segments: group g contains stacked segment g and off-chip segments
 * g, g+numGroups, g+2*numGroups, ... — the stride spreads each
 * group's members across the whole off-chip pool so OS allocation
 * patterns cannot systematically starve a group of free segments.
 */

#ifndef CHAMELEON_MEMORG_SEGMENT_SPACE_HH
#define CHAMELEON_MEMORG_SEGMENT_SPACE_HH

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"

namespace chameleon
{

/** Maximum segments per group the packed SRT entry supports (1:7). */
inline constexpr std::uint32_t maxSlotsPerGroup = 8;

/**
 * Address arithmetic for segment-restricted remapping.
 *
 * The per-access decomposition divides by nothing: the segment size
 * is a power of two (a shift and a mask), and the constructor bounds
 * the segment count by 2^32 so the group and slot of an off-chip
 * segment come from one Divider32 multiply-high.
 */
class SegmentSpace
{
  public:
    SegmentSpace(std::uint64_t stacked_bytes, std::uint64_t offchip_bytes,
                 std::uint64_t seg_bytes)
        : segBytes(seg_bytes), stackedBytes(stacked_bytes),
          offchipBytes(offchip_bytes)
    {
        if (stackedBytes == 0)
            fatal("SegmentSpace: stacked capacity is zero");
        if (!isPowerOf2(segBytes))
            fatal("SegmentSpace: segment size %llu is not a power of two",
                  static_cast<unsigned long long>(segBytes));
        if (stackedBytes % segBytes != 0 || offchipBytes % segBytes != 0)
            fatal("SegmentSpace: capacities not segment multiples");
        if (offchipBytes % stackedBytes != 0)
            fatal("SegmentSpace: off-chip must be a multiple of "
                  "stacked capacity (1:K ratio)");
        segShift = floorLog2(segBytes);
        const std::uint64_t segments =
            (stackedBytes >> segShift) + (offchipBytes >> segShift);
        if (segments > maxSegments)
            fatal("SegmentSpace: %llu segments (capacity / segment "
                  "size) exceed 2^32",
                  static_cast<unsigned long long>(segments));
        groups = stackedBytes >> segShift;
        groupDiv = Divider32(static_cast<std::uint32_t>(groups));
        slots = 1 + static_cast<std::uint32_t>(offchipBytes /
                                               stackedBytes);
        if (slots > maxSlotsPerGroup)
            fatal("SegmentSpace: ratio 1:%u exceeds supported 1:%u",
                  slots - 1, maxSlotsPerGroup - 1);
    }

    /** Most segments a space may have: indices fit in 32 bits. */
    static constexpr std::uint64_t maxSegments = 1ull << 32;

    std::uint64_t numGroups() const { return groups; }
    std::uint32_t slotsPerGroup() const { return slots; }
    std::uint64_t segmentBytes() const { return segBytes; }
    std::uint64_t osVisibleBytes() const
    {
        return stackedBytes + offchipBytes;
    }

    /** Group containing OS-visible address @p phys. */
    std::uint64_t
    groupOf(Addr phys) const
    {
        const std::uint64_t seg = phys >> segShift;
        if (seg < groups)
            return seg;
        const std::uint64_t n = seg - groups;
        return n - groupDiv.quotient(n) * groups;
    }

    /** Logical (home) slot of OS-visible address @p phys. */
    std::uint32_t
    slotOf(Addr phys) const
    {
        const std::uint64_t seg = phys >> segShift;
        if (seg < groups)
            return 0;
        return 1 + static_cast<std::uint32_t>(
                       groupDiv.quotient(seg - groups));
    }

    /** Byte offset of @p phys within its segment. */
    Addr offsetOf(Addr phys) const { return phys & (segBytes - 1); }

    /** OS-visible home address of (group, slot). */
    Addr
    homeAddr(std::uint64_t group, std::uint32_t slot) const
    {
        if (slot == 0)
            return group << segShift;
        return (groups + (slot - 1) * groups + group) << segShift;
    }

    /** True when physical slot @p slot resides in stacked DRAM. */
    static bool
    slotIsStacked(std::uint32_t slot)
    {
        return slot == 0;
    }

    /** Device-local byte address of (group, slot)'s physical storage. */
    Addr
    deviceAddr(std::uint64_t group, std::uint32_t slot) const
    {
        if (slot == 0)
            return group << segShift;
        return ((slot - 1) * groups + group) << segShift;
    }

  private:
    std::uint64_t segBytes;
    std::uint64_t stackedBytes;
    std::uint64_t offchipBytes;
    unsigned segShift = 0;
    std::uint64_t groups = 0;
    Divider32 groupDiv;
    std::uint32_t slots = 0;
};

} // namespace chameleon

#endif // CHAMELEON_MEMORG_SEGMENT_SPACE_HH
