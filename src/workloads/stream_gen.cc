#include "workloads/stream_gen.hh"

#include <algorithm>

#include "common/log.hh"

namespace chameleon
{

namespace
{

/** Mean instructions per reference: 1000/MPKI, at least 1. */
double
meanGapOf(const AppProfile &p)
{
    if (p.llcMpki <= 0.0)
        fatal("SyntheticStream(%s): MPKI must be positive", p.name.c_str());
    return std::max(1.0, 1000.0 / p.llcMpki);
}

} // namespace

SyntheticStream::SyntheticStream(const AppProfile &profile,
                                 std::uint64_t footprint_bytes,
                                 std::uint64_t seed)
    : prof(profile), rng(seed),
      blocks(std::max<std::uint64_t>(footprint_bytes / 64, 64)),
      hotBlocks(std::max<std::uint64_t>(
          static_cast<std::uint64_t>(prof.hotFraction *
                                     static_cast<double>(blocks)), 1)),
      phaseStep(std::max<std::uint64_t>(
          static_cast<std::uint64_t>(prof.phaseShiftFraction *
                                     static_cast<double>(hotBlocks)), 1)),
      gapDist(meanGapOf(prof)), runDist(prof.seqRunBlocks),
      hotDist(hotBlocks, prof.zipfSkew),
      nextPhaseAt(prof.phaseInstructions ? prof.phaseInstructions : ~0ull)
{
}

void
SyntheticStream::rotatePhases()
{
    // Advance the hot window by the configured turnover once per phase
    // boundary crossed, so part of the working set goes cold and fresh
    // blocks heat up.
    while (instrRetired >= nextPhaseAt) {
        ++phaseIdx;
        nextPhaseAt += prof.phaseInstructions;
        hotBase = (hotBase + phaseStep) % blocks;
    }
}

void
SyntheticStream::startNewRun()
{
    // The emitted stream is post-LLC: an immediately repeated block
    // would have been absorbed by the SRAM hierarchy, so redraw when
    // the new run starts exactly where the last one did.
    std::uint64_t base = lastRunBase;
    for (int attempt = 0; attempt < 4 && base == lastRunBase;
         ++attempt) {
        if (rng.chance(prof.hotProbability))
            base = (hotBase + hotDist(rng)) % blocks;
        else
            base = rng.below(blocks);
    }
    if (base == lastRunBase)
        base = (base + 1) % blocks;
    lastRunBase = base;
    pos = base;
    runRemaining = runDist(rng);
}

MemOp
SyntheticStream::next()
{
    if (runRemaining == 0)
        startNewRun();

    MemOp op;
    op.vaddr = pos * 64;
    op.type = rng.chance(prof.writeFraction) ? AccessType::Write
                                             : AccessType::Read;
    op.gap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(gapDist(rng), 1u << 20));

    if (++pos == blocks)
        pos = 0;
    --runRemaining;
    instrRetired += op.gap;
    ++refs;
    if (instrRetired >= nextPhaseAt)
        rotatePhases();
    return op;
}

} // namespace chameleon
