#include "workloads/trace_stream.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "common/log.hh"
#include "os/frame_allocator.hh"

namespace chameleon
{

namespace
{

/** First character at or after @p p that is not a blank. */
const char *
skipBlanks(const char *p)
{
    while (*p == ' ' || *p == '\t' || *p == '\r')
        ++p;
    return p;
}

/**
 * Parse one unsigned number (hex 0x... or decimal) at @p p and move
 * @p p past it. Signs, overflow and an empty field are rejected.
 */
bool
parseUnsigned(const char *&p, unsigned long long &out)
{
    if (!std::isdigit(static_cast<unsigned char>(*p)))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(p, &end, 0);
    p = end;
    return errno != ERANGE;
}

} // namespace

TraceStream::TraceStream(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("TraceStream: cannot open '%s'", path.c_str());
    // An address in the top page would wrap the page-rounded
    // footprint (see computeFootprint).
    constexpr Addr maxAddr = ~Addr{0} - pageBytes;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const char *p = skipBlanks(line.c_str());
        if (*p == '#' || *p == '\0')
            continue;
        const char op = *p;
        if (op != 'R' && op != 'W' && op != 'r' && op != 'w')
            fatal("TraceStream: %s:%zu: expected R/W, got '%c'",
                  path.c_str(), lineno, op);
        p = skipBlanks(p + 1);
        unsigned long long addr = 0;
        if (!parseUnsigned(p, addr))
            fatal("TraceStream: %s:%zu: malformed address",
                  path.c_str(), lineno);
        if (addr > maxAddr)
            fatal("TraceStream: %s:%zu: address 0x%llx out of range",
                  path.c_str(), lineno, addr);
        unsigned long long gap = 1;
        const char *rest = skipBlanks(p);
        if (rest != p && *rest != '\0') {
            // A blank-separated gap field.
            p = rest;
            if (!parseUnsigned(p, gap) || gap == 0)
                fatal("TraceStream: %s:%zu: gap must be a positive "
                      "integer",
                      path.c_str(), lineno);
            rest = skipBlanks(p);
        }
        if (*rest != '\0')
            fatal("TraceStream: %s:%zu: trailing junk '%s'",
                  path.c_str(), lineno, rest);
        MemOp mo;
        mo.vaddr = static_cast<Addr>(addr) / 64 * 64;
        mo.type = (op == 'W' || op == 'w') ? AccessType::Write
                                           : AccessType::Read;
        mo.gap = static_cast<std::uint32_t>(
            std::min<unsigned long long>(gap, 1u << 20));
        ops.push_back(mo);
    }
    if (ops.empty())
        fatal("TraceStream: '%s' contains no references",
              path.c_str());
    computeFootprint();
}

TraceStream::TraceStream(std::vector<MemOp> records)
    : ops(std::move(records))
{
    if (ops.empty())
        fatal("TraceStream: empty trace");
    computeFootprint();
}

void
TraceStream::computeFootprint()
{
    Addr max_addr = 0;
    for (const MemOp &op : ops)
        max_addr = std::max(max_addr, op.vaddr);
    footprintBytes = (max_addr / pageBytes + 1) * pageBytes;
}

MemOp
TraceStream::next()
{
    const MemOp op = ops[pos];
    if (++pos == ops.size()) {
        pos = 0;
        ++wraps;
    }
    return op;
}

} // namespace chameleon
