#include "memorg/alloy_cache.hh"

#include "common/log.hh"

namespace chameleon
{

AlloyCache::AlloyCache(DramDevice *stacked_dev, DramDevice *offchip_dev,
                       const AlloyConfig &config)
    : MemOrganization(stacked_dev, offchip_dev), cfg(config)
{
    if (!stacked)
        fatal("AlloyCache: needs a stacked device");
    if (cfg.lineBytes != 64)
        fatal("AlloyCache: only 64B lines are supported");
    if (cfg.predictorEntries != 0 && !isPowerOf2(cfg.predictorEntries))
        fatal("AlloyConfig::predictorEntries %u must be a power of two "
              "(or 0)", cfg.predictorEntries);
    const auto usable = static_cast<std::uint64_t>(
        static_cast<double>(stacked->capacity()) * cfg.tadEfficiency);
    lines.resize(usable / cfg.lineBytes);
    if (lines.empty())
        fatal("AlloyCache: stacked capacity too small");
    // Line index and tag come from one 32-bit quotient per access.
    const std::uint64_t blocks = offchip->capacity() / cfg.lineBytes;
    if (blocks > 1ull << 32 || lines.size() >= 1ull << 32)
        fatal("AlloyCache: %llu off-chip or %llu stacked lines exceed "
              "2^32", static_cast<unsigned long long>(blocks),
              static_cast<unsigned long long>(lines.size()));
    lineDiv = Divider32(static_cast<std::uint32_t>(lines.size()));
    // Start weakly predicting hit (2 on the 0..3 scale).
    predictor.assign(cfg.predictorEntries ? cfg.predictorEntries : 1,
                     2);
}

bool
AlloyCache::predictHit(Addr phys) const
{
    if (cfg.predictorEntries == 0)
        return true; // always-serial fallback
    const std::size_t idx = (phys >> 12) & (cfg.predictorEntries - 1);
    return predictor[idx] >= 2;
}

void
AlloyCache::trainPredictor(Addr phys, bool hit)
{
    if (cfg.predictorEntries == 0)
        return;
    const std::size_t idx = (phys >> 12) & (cfg.predictorEntries - 1);
    std::uint8_t &ctr = predictor[idx];
    if (hit && ctr < 3)
        ++ctr;
    else if (!hit && ctr > 0)
        --ctr;
}

std::uint64_t
AlloyCache::osVisibleBytes() const
{
    // Caches duplicate data: only the off-chip pool is OS-visible.
    return offchip->capacity();
}

const char *
AlloyCache::name() const
{
    return "alloy-cache";
}

AlloyCache::LineRef
AlloyCache::locate(Addr phys) const
{
    const std::uint64_t block = phys >> 6;
    const std::uint64_t tag = lineDiv.quotient(block);
    return {block - tag * lines.size(), tag};
}

void
AlloyCache::prefetch(Addr phys) const
{
    if (phys >= offchip->capacity())
        return;
    __builtin_prefetch(&lines[locate(phys).index], 1);
    if (cfg.predictorEntries != 0)
        __builtin_prefetch(
            &predictor[(phys >> 12) & (cfg.predictorEntries - 1)], 1);
}

Addr
AlloyCache::resolveLocation(Addr phys) const
{
    const LineRef ref = locate(phys);
    const Line &line = lines[ref.index];
    if (line.valid && line.tag == ref.tag)
        return stackedLoc(ref.index * cfg.lineBytes);
    return offchipLoc(phys);
}

MemAccessResult
AlloyCache::access(Addr phys, AccessType type, Cycle when)
{
    if (phys >= osVisibleBytes())
        panic("alloy-cache: access %#llx beyond OS-visible space",
              static_cast<unsigned long long>(phys));

    const LineRef ref = locate(phys);
    const std::uint64_t idx = ref.index;
    const Addr line_home = phys & ~(cfg.lineBytes - 1);
    const Addr slot_addr = idx * cfg.lineBytes;
    Line &line = lines[idx];

    MemAccessResult result;
    const bool predicted_hit = predictHit(phys);
    // The TAD probe streams tag+data in one stacked access.
    const Cycle probe_done = stackedAccess(slot_addr, type, when);

    if (line.valid && line.tag == ref.tag) {
        if (!predicted_hit) {
            // MAP mispredicted miss: the speculative off-chip read
            // was issued in parallel and its bandwidth is wasted.
            offchipAccess(line_home, AccessType::Read, when);
        }
        trainPredictor(phys, true);
        result.stackedHit = true;
        result.done = probe_done;
        if (type == AccessType::Write)
            line.dirty = true;
        recordDemand(type, when, result.done, true);
        return result;
    }

    // Miss: a predicted miss overlapped the off-chip access with the
    // TAD probe; a predicted hit pays the serial probe-then-fetch.
    trainPredictor(phys, false);
    result.stackedHit = false;
    const Cycle offchip_issue = predicted_hit ? probe_done : when;
    result.done =
        offchipAccess(line_home, AccessType::Read, offchip_issue);

    // Victim writeback (posted).
    if (line.valid && line.dirty) {
        const Addr victim_home =
            (line.tag * lines.size() + idx) * cfg.lineBytes;
        offchipAccess(victim_home, AccessType::Write, result.done);
        funcCopy(stackedLoc(slot_addr), offchipLoc(victim_home),
                 cfg.lineBytes);
        ++statsData.writebacks;
    }

    // Fill the TAD (posted).
    stackedAccess(slot_addr, AccessType::Write, result.done);
    funcCopy(offchipLoc(line_home), stackedLoc(slot_addr),
             cfg.lineBytes);
    line.valid = true;
    line.tag = ref.tag;
    line.dirty = (type == AccessType::Write);
    ++statsData.fills;

    recordDemand(type, when, result.done, false);
    return result;
}

} // namespace chameleon
