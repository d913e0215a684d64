/**
 * @file
 * File-based trace replay. Each line of a trace file is
 *
 *     R <vaddr> [gap]
 *     W <vaddr> [gap]
 *
 * with vaddr in hex (0x...) or decimal and gap an optional positive
 * instruction count (default 1). Lines starting with '#' are
 * comments; lines may be of any length. A negative, overflowing or
 * top-page address, a bad gap or trailing junk is fatal, naming the
 * file and line. The trace loops when exhausted so any instruction
 * budget can be simulated; the footprint is the page-rounded maximum
 * address seen. This is the adoption path for users with real application
 * traces (e.g. produced by a PIN/DynamoRIO tool or a gem5 probe).
 */

#ifndef CHAMELEON_WORKLOADS_TRACE_STREAM_HH
#define CHAMELEON_WORKLOADS_TRACE_STREAM_HH

#include <string>
#include <vector>

#include "workloads/address_stream.hh"

namespace chameleon
{

/** Replays a recorded reference trace, looping at the end. */
class TraceStream : public AddressStream
{
  public:
    /** Load @p path; fatal on parse errors. */
    explicit TraceStream(const std::string &path);

    /** Build directly from memory (tests, generators). */
    explicit TraceStream(std::vector<MemOp> ops);

    MemOp next() override;
    std::uint64_t footprint() const override { return footprintBytes; }

    /** Number of records in the trace (before looping). */
    std::size_t size() const { return ops.size(); }

    /** Times the trace has wrapped around. */
    std::uint64_t loops() const { return wraps; }

  private:
    void computeFootprint();

    std::vector<MemOp> ops;
    std::size_t pos = 0;
    std::uint64_t wraps = 0;
    std::uint64_t footprintBytes = 0;
};

} // namespace chameleon

#endif // CHAMELEON_WORKLOADS_TRACE_STREAM_HH
