/**
 * @file
 * Synthetic address-stream generator.
 *
 * Each generator instance models one copy of one application and emits
 * the post-LLC reference stream directly: a memory operation every
 * ~1000/MPKI instructions, targeting a hot working set with Zipf skew
 * plus a uniform cold tail, with geometric sequential runs for spatial
 * locality and optional phase changes that rotate the hot set through
 * the footprint. Emitting at LLC-miss level keeps the Table II MPKI
 * exact by construction and makes multi-configuration sweeps cheap.
 * There is no SRAM cache model: the emitted stream is what the LLC
 * would miss.
 *
 * Thread-compatible, not thread-safe: each stream (and its Rng) is
 * owned by one core of one System.
 */

#ifndef CHAMELEON_WORKLOADS_STREAM_GEN_HH
#define CHAMELEON_WORKLOADS_STREAM_GEN_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "workloads/address_stream.hh"
#include "workloads/profile.hh"

namespace chameleon
{

/** Deterministic per-copy stream for one application profile. */
class SyntheticStream : public AddressStream
{
  public:
    /**
     * @param profile         Application tuning profile.
     * @param footprint_bytes This copy's footprint (VA space size).
     * @param seed            Per-copy RNG seed.
     */
    SyntheticStream(const AppProfile &profile,
                    std::uint64_t footprint_bytes, std::uint64_t seed);

    /** Produce the next reference. */
    MemOp next() override;

    /** VA-space size this stream covers. */
    std::uint64_t footprint() const override { return blocks * 64; }

    /** Instructions accounted for so far (sum of gaps). */
    std::uint64_t instructionsRetired() const { return instrRetired; }

    /** Memory references emitted so far. */
    std::uint64_t refsEmitted() const { return refs; }

    /** Current phase index (hot-set rotations so far). */
    std::uint64_t phase() const { return phaseIdx; }

  private:
    void rotatePhases();
    void startNewRun();

    AppProfile prof;
    Rng rng;

    std::uint64_t blocks;
    std::uint64_t hotBlocks;
    std::uint64_t hotBase = 0;
    /** Hot-window advance per phase, in blocks (at least 1). */
    std::uint64_t phaseStep;

    GeometricDist gapDist;
    GeometricDist runDist;
    ZipfDist hotDist;

    /** Next block to emit; always < blocks. */
    std::uint64_t pos = 0;
    std::uint64_t runRemaining = 0;
    std::uint64_t lastRunBase = ~0ull;

    std::uint64_t instrRetired = 0;
    std::uint64_t refs = 0;
    std::uint64_t phaseIdx = 0;
    /** instrRetired at which the next phase starts (~0: never). */
    std::uint64_t nextPhaseAt;
};

} // namespace chameleon

#endif // CHAMELEON_WORKLOADS_STREAM_GEN_HH
