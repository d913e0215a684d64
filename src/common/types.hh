/**
 * @file
 * Fundamental scalar types and unit helpers shared by every Chameleon
 * module. Addresses, cycle counts and sizes are 64-bit throughout; the
 * simulator never truncates a physical address.
 */

#ifndef CHAMELEON_COMMON_TYPES_HH
#define CHAMELEON_COMMON_TYPES_HH

#include <cstdint>

namespace chameleon
{

/** A physical or virtual byte address. */
using Addr = std::uint64_t;

/** A point in (or span of) simulated time, measured in CPU cycles. */
using Cycle = std::uint64_t;

/** Identifies one core / hardware context. */
using CoreId = std::uint32_t;

/** Identifies one OS process. */
using ProcId = std::uint32_t;

/** Sentinel for "no address". */
inline constexpr Addr invalidAddr = ~static_cast<Addr>(0);

/** Byte-size literal helpers. */
inline constexpr std::uint64_t operator""_KiB(unsigned long long v)
{
    return v << 10;
}

inline constexpr std::uint64_t operator""_MiB(unsigned long long v)
{
    return v << 20;
}

inline constexpr std::uint64_t operator""_GiB(unsigned long long v)
{
    return v << 30;
}

/**
 * Which physical memory a request is routed to. The paper's "fast"
 * memory is the high-bandwidth stacked DRAM; "slow" is the off-chip
 * DDR channel pool.
 */
enum class MemNode : std::uint8_t { Stacked = 0, OffChip = 1 };

/** Read/write direction of a memory request. */
enum class AccessType : std::uint8_t { Read = 0, Write = 1 };

/** Integer ceiling division. */
inline constexpr std::uint64_t
ceilDiv(std::uint64_t num, std::uint64_t den)
{
    return (num + den - 1) / den;
}

/** True iff @p v is a power of two (and non-zero). */
inline constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power-of-two value. */
inline constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v > 1) { v >>= 1; ++l; }
    return l;
}

/**
 * Division by a fixed divisor below 2^32, for dividends below 2^32,
 * as one multiply-high instead of a 64-bit division. With
 * M = ceil(2^64 / d), n / d == (M * n) >> 64 exactly for every such
 * n and d (Lemire, Kaser and Kurz, "Faster remainder by direct
 * computation", 2019). d == 1 would need M == 2^64, so it is carried
 * by a mask that passes the dividend through instead.
 */
class Divider32
{
  public:
    Divider32() = default;

    /** @p d must be non-zero. */
    explicit constexpr Divider32(std::uint32_t d)
        : magic(d > 1 ? ~std::uint64_t{0} / d + 1 : 0),
          identity(d == 1 ? ~std::uint64_t{0} : 0)
    {
    }

    /** @p n / d; @p n must be below 2^32. */
    constexpr std::uint64_t
    quotient(std::uint64_t n) const
    {
        return static_cast<std::uint64_t>(
                   (static_cast<unsigned __int128>(magic) * n) >> 64) |
               (n & identity);
    }

  private:
    std::uint64_t magic = 0;
    std::uint64_t identity = 0;
};

} // namespace chameleon

#endif // CHAMELEON_COMMON_TYPES_HH
