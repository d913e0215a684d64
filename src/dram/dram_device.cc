#include "dram/dram_device.hh"

#include <algorithm>

#include "common/log.hh"
#include "fault/fault_injector.hh"
#include "obs/trace_sink.hh"

namespace chameleon
{

DramDevice::DramDevice(const DramTimings &timings)
    : cfg(timings),
      refresh(static_cast<Cycle>(cfg.tRefiNs * cpuFreqGhz + 0.5),
              static_cast<Cycle>(cfg.tRfcNs * cpuFreqGhz + 0.5))
{
    // Power-of-two geometry turns mapAddress into shifts and masks.
    if (!isPowerOf2(cfg.rowBytes) || cfg.rowBytes < 64)
        fatal("DramDevice: rowBytes %u must be a power of two >= 64",
              cfg.rowBytes);
    if (!isPowerOf2(cfg.channels))
        fatal("DramDevice: channels %u must be a power of two",
              cfg.channels);
    const std::uint64_t per_channel =
        static_cast<std::uint64_t>(cfg.ranksPerChannel) * cfg.banksPerRank;
    if (!isPowerOf2(per_channel))
        fatal("DramDevice: ranksPerChannel*banksPerRank %llu must be a "
              "power of two", static_cast<unsigned long long>(per_channel));
    chanMask = cfg.channels - 1;
    rowSeqShift = floorLog2(cfg.channels) + floorLog2(cfg.rowBytes / 64);
    bankMask = per_channel - 1;
    bankShift = floorLog2(per_channel);

    cpuPerMemClock = cpuFreqGhz / cfg.busFreqGhz;
    tCasCpu = memToCpu(cfg.tCas);
    tRcdCpu = memToCpu(cfg.tRcd);
    tRpCpu = memToCpu(cfg.tRp);
    tRasCpu = memToCpu(cfg.tRas);
    tBurstCpu = memToCpu(cfg.burstCycles());

    channels.resize(cfg.channels);
    banks.resize(cfg.channels * per_channel);
}

void
DramDevice::mapAddress(Addr addr, std::uint32_t &channel,
                       std::uint32_t &bank, std::uint64_t &row) const
{
    // 64B blocks interleave across channels; rows interleave across the
    // banks of a channel. This is the standard open-page mapping that
    // gives both channel parallelism and row locality for streams.
    const Addr block = addr >> 6;
    channel = static_cast<std::uint32_t>(block & chanMask);
    const Addr row_seq = block >> rowSeqShift;
    bank = static_cast<std::uint32_t>(row_seq & bankMask);
    row = row_seq >> bankShift;
}

Cycle
DramDevice::refreshAdjust(Cycle start)
{
    // All banks are unavailable for tRFC at the top of each tREFI
    // window (all-bank refresh). Push the start time out of the
    // blackout if it lands inside one.
    const Cycle adjusted = refresh.adjust(start);
    if (adjusted != start)
        ++statsData.refreshStalls;
    return adjusted;
}

Cycle
DramDevice::access(Addr addr, AccessType type, Cycle when)
{
    if (addr >= cfg.capacity)
        panic("DramDevice(%s): address %#llx beyond capacity %#llx",
              cfg.name, static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(cfg.capacity));

    std::uint32_t chan_idx, bank_idx;
    std::uint64_t row;
    mapAddress(addr, chan_idx, bank_idx, row);
    Channel &chan = channels[chan_idx];
    Bank &bank = banks[(chan_idx << bankShift) | bank_idx];

    Cycle start = refreshAdjust(std::max(when, bank.readyAt));

    Cycle data_ready;
    if (bank.openRow == row) {
        // Row hit: CAS only. Subsequent same-row accesses pipeline
        // behind the data bus, so the bank frees as soon as the
        // column command issues.
        ++statsData.rowHits;
        data_ready = start + tCasCpu;
        bank.readyAt = start + tBurstCpu;
    } else if (bank.openRow == noRow) {
        // Row miss on a precharged bank: ACT then CAS.
        ++statsData.rowMisses;
        bank.activatedAt = start;
        data_ready = start + tRcdCpu + tCasCpu;
        bank.openRow = row;
        bank.readyAt = start + tRcdCpu + tBurstCpu;
    } else {
        // Row conflict: precharge (respecting tRAS), ACT, CAS.
        ++statsData.rowConflicts;
        const Cycle pre_at =
            std::max(start, bank.activatedAt + tRasCpu);
        const Cycle act_at = pre_at + tRpCpu;
        bank.activatedAt = act_at;
        data_ready = act_at + tRcdCpu + tCasCpu;
        bank.openRow = row;
        bank.readyAt = act_at + tRcdCpu + tBurstCpu;
    }

    // Serialize on the channel data bus.
    const Cycle xfer_start = std::max(data_ready, chan.busFreeAt);
    Cycle done = xfer_start + tBurstCpu;
    chan.busFreeAt = done;

    if (faults) {
        // Channel latency spike: the data bus stalls, so the channel
        // stays busy for the whole penalty.
        const Cycle pen = faults->latencyPenalty(faultNode, chan_idx,
                                                 when);
        if (pen > 0) {
            ++statsData.spikeDelays;
            done += pen;
            chan.busFreeAt = done;
            TraceSink::emit(trace, when, TraceKind::LatencySpike,
                            static_cast<std::uint64_t>(faultNode),
                            chan_idx, pen);
        }
        switch (faults->eccSample(faultNode, addr, when)) {
          case EccOutcome::Corrected:
            done += faults->correctionLatency();
            ++statsData.eccCorrected;
            TraceSink::emit(trace, when, TraceKind::EccCorrected,
                            static_cast<std::uint64_t>(faultNode),
                            addr);
            break;
          case EccOutcome::Uncorrectable:
            // Detected, not corrected: the access completes from the
            // last-gasp readout; the segment is queued for retirement.
            ++statsData.eccUncorrectable;
            TraceSink::emit(trace, when, TraceKind::EccUncorrectable,
                            static_cast<std::uint64_t>(faultNode),
                            addr);
            break;
          case EccOutcome::None:
            break;
        }
    }

    statsData.bytesTransferred += 64;
    if (type == AccessType::Read) {
        ++statsData.reads;
        statsData.readLatencySum += done - when;
    } else {
        ++statsData.writes;
    }
    return done;
}

Cycle
DramDevice::bulkTransfer(Addr addr, std::uint64_t bytes, AccessType type,
                         Cycle when)
{
    // Block k covers [addr + 64k, addr + 64k + 64), wrapped past the
    // capacity. Only every demandImpactStride-th block goes through
    // the bank/bus model; each other block is an idle-slot steal that
    // adds its bytes and one tBurst after the contending block before
    // it, so the steals reduce to counts.
    const std::uint64_t blocks = ceilDiv(bytes, 64);
    if (blocks == 0)
        return when;
    Cycle done = when;
    for (std::uint64_t k = 0; k < blocks; k += demandImpactStride) {
        Addr a = addr + k * 64;
        if (a >= cfg.capacity)
            a %= cfg.capacity;
        done = access(a, type, when);
    }
    const std::uint64_t contended = ceilDiv(blocks, demandImpactStride);
    const std::uint64_t stolen = blocks - contended;
    statsData.bytesTransferred += stolen * 64;
    if (type == AccessType::Read)
        statsData.reads += stolen;
    else
        statsData.writes += stolen;
    // Steals after the last contending block extend the completion.
    return done + (blocks - 1) % demandImpactStride * tBurstCpu;
}

Cycle
DramDevice::idleHitLatency() const
{
    return tCasCpu + tBurstCpu;
}

Cycle
DramDevice::estimatedQueueDelay(Cycle when) const
{
    Cycle total = 0;
    for (const auto &chan : channels)
        total += chan.busFreeAt > when ? chan.busFreeAt - when : 0;
    return total / channels.size();
}

} // namespace chameleon
