#include "expected.hh"

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"

namespace perfbench
{

JobStats
statsOf(const chameleon::RunResult &r, std::uint64_t refs_total)
{
    JobStats s;
    s.ipc = r.ipcGeoMean;
    s.hitRate = r.stackedHitRate;
    s.swaps = r.swaps;
    s.fills = r.fills;
    s.amal = r.amal;
    s.instructions = r.instructions;
    s.memRefs = r.memRefs;
    s.refsTotal = refs_total;
    return s;
}

std::string
diffStats(const JobStats &e, const JobStats &a)
{
    const auto same = [](double x, double y) {
        return std::bit_cast<std::uint64_t>(x) ==
               std::bit_cast<std::uint64_t>(y);
    };
    if (!same(e.ipc, a.ipc))
        return "ipc";
    if (!same(e.hitRate, a.hitRate))
        return "hit_rate";
    if (e.swaps != a.swaps)
        return "swaps";
    if (e.fills != a.fills)
        return "fills";
    if (!same(e.amal, a.amal))
        return "amal";
    if (e.instructions != a.instructions)
        return "instructions";
    if (e.memRefs != a.memRefs)
        return "mem_refs";
    if (e.refsTotal != a.refsTotal)
        return "refs_total";
    return "";
}

// One row per line: the six key words, then the eight stats.
// Lines starting with '#' are comments.

ExpectedTable
ExpectedTable::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected table " + path);
    ExpectedTable table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string design, app, scale, instr, refs, seed;
        std::string ipc, hit, amal;
        JobStats s;
        ls >> design >> app >> scale >> instr >> refs >> seed >> ipc >>
            hit >> s.swaps >> s.fills >> amal >> s.instructions >>
            s.memRefs >> s.refsTotal;
        if (!ls)
            throw std::runtime_error("corrupt expected-table line: " +
                                     line);
        s.ipc = std::stod(ipc);
        s.hitRate = std::stod(hit);
        s.amal = std::stod(amal);
        table.set(design + " " + app + " " + scale + " " + instr + " " +
                      refs + " " + seed,
                  s);
    }
    return table;
}

const JobStats *
ExpectedTable::find(const std::string &key) const
{
    const auto it = rows.find(key);
    return it == rows.end() ? nullptr : &it->second;
}

void
ExpectedTable::set(const std::string &key, const JobStats &stats)
{
    rows[key] = stats;
}

void
ExpectedTable::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "# design app scale instr refs seed | ipc hit_rate swaps "
           "fills amal instructions mem_refs refs_total\n"
           "# Written by perfbench --write-expected; doubles round-trip.\n";
    for (const auto &[key, s] : rows)
        out << key << " " << chameleon::roundTripDouble(s.ipc) << " "
            << chameleon::roundTripDouble(s.hitRate) << " " << s.swaps
            << " " << s.fills << " " << chameleon::roundTripDouble(s.amal)
            << " " << s.instructions << " " << s.memRefs << " "
            << s.refsTotal << "\n";
    if (!out)
        throw std::runtime_error("cannot write expected table " + path);
}

} // namespace perfbench
