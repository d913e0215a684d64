#include "memorg/mem_organization.hh"

#include "common/log.hh"

namespace chameleon
{

MemOrganization::MemOrganization(DramDevice *stacked_dev,
                                 DramDevice *offchip_dev)
    : stacked(stacked_dev), offchip(offchip_dev)
{
    if (!offchip)
        fatal("MemOrganization: off-chip device is mandatory");
}

void
MemOrganization::resetStats()
{
    statsData = MemOrgStats();
    if (stacked)
        stacked->resetStats();
    offchip->resetStats();
}

void
MemOrganization::noStackedDevice() const
{
    panic("%s: stacked access without a stacked device", name());
}

void
MemOrganization::functionalWrite(Addr phys, std::uint64_t value)
{
    if (!functionalOn)
        return;
    blockData[resolveLocation(phys) / 64 * 64] = value;
}

std::optional<std::uint64_t>
MemOrganization::functionalRead(Addr phys)
{
    if (!functionalOn)
        return std::nullopt;
    const Addr loc = resolveLocation(phys) / 64 * 64;
    auto it = blockData.find(loc);
    if (it == blockData.end())
        return std::nullopt;
    return it->second;
}

std::optional<std::uint64_t>
MemOrganization::functionalPeekLoc(Addr loc) const
{
    if (!functionalOn)
        return std::nullopt;
    auto it = blockData.find(loc / 64 * 64);
    if (it == blockData.end())
        return std::nullopt;
    return it->second;
}

void
MemOrganization::isaMigrate(Addr src_base, Addr dst_base,
                            std::uint64_t bytes, Cycle when)
{
    (void)when;
    if (!functionalOn)
        return;
    // Per-block resolution: the two frames may straddle segment
    // boundaries that are remapped independently.
    for (std::uint64_t off = 0; off < bytes; off += 64)
        funcMove(resolveLocation(src_base + off),
                 resolveLocation(dst_base + off), 64);
}

void
MemOrganization::reserveFunctional(std::uint64_t footprint_bytes)
{
    if (!functionalOn)
        return;
    blockData.reserve(footprint_bytes / 64);
}

void
MemOrganization::funcMove(Addr src_loc, Addr dst_loc, std::uint64_t bytes)
{
    if (!functionalOn)
        return;
    // FlatMap iterators do not survive inserts (slots relocate on
    // rehash), so copy values out before touching the table.
    for (std::uint64_t off = 0; off < bytes; off += 64) {
        auto it = blockData.find(src_loc + off);
        if (it != blockData.end()) {
            const std::uint64_t v = it->second;
            blockData.erase(it);
            blockData[dst_loc + off] = v;
        } else {
            blockData.erase(dst_loc + off);
        }
    }
}

void
MemOrganization::funcCopy(Addr src_loc, Addr dst_loc, std::uint64_t bytes)
{
    if (!functionalOn)
        return;
    for (std::uint64_t off = 0; off < bytes; off += 64) {
        auto it = blockData.find(src_loc + off);
        if (it != blockData.end()) {
            const std::uint64_t v = it->second;
            blockData[dst_loc + off] = v;
        } else {
            blockData.erase(dst_loc + off);
        }
    }
}

void
MemOrganization::funcSwap(Addr loc_a, Addr loc_b, std::uint64_t bytes)
{
    if (!functionalOn)
        return;
    for (std::uint64_t off = 0; off < bytes; off += 64) {
        auto ia = blockData.find(loc_a + off);
        const bool has_a = ia != blockData.end();
        const std::uint64_t va = has_a ? ia->second : 0;
        auto ib = blockData.find(loc_b + off);
        const bool has_b = ib != blockData.end();
        const std::uint64_t vb = has_b ? ib->second : 0;
        if (has_a && has_b) {
            // find() never rehashes, so both iterators are valid.
            ia->second = vb;
            ib->second = va;
        } else if (has_a) {
            blockData.erase(loc_a + off);
            blockData[loc_b + off] = va;
        } else if (has_b) {
            blockData.erase(loc_b + off);
            blockData[loc_a + off] = vb;
        }
    }
}

void
MemOrganization::funcClear(Addr loc, std::uint64_t bytes)
{
    if (!functionalOn)
        return;
    for (std::uint64_t off = 0; off < bytes; off += 64)
        blockData.erase(loc + off);
}

} // namespace chameleon
