#include "obs/trace_sink.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/json.hh"
#include "common/log.hh"

namespace chameleon
{
TraceSink::TraceSink(const TraceSinkConfig &config)
    : cfg(config), rings(config.ringEvents)
{
    if (cfg.ringEvents == 0)
        fatal("trace: ring capacity must be non-zero");
    if (cfg.cyclesPerMicrosecond <= 0.0)
        fatal("trace: cycles-per-microsecond must be positive");
}

std::vector<TraceEvent>
TraceSink::sortedEvents() const
{
    return rings.sortedBy([](const TraceEvent &ev) { return ev.when; });
}

std::string
TraceSink::toChromeJson() const
{
    struct Tagged
    {
        TraceEvent ev;
        std::size_t tid;
    };
    std::vector<Tagged> all;
    rings.forEachRetained([&](std::size_t tid, const TraceEvent &ev) {
        all.push_back(Tagged{ev, tid});
    });
    // Monotonic "ts" regardless of how thread buffers interleave.
    std::stable_sort(all.begin(), all.end(),
                     [](const Tagged &a, const Tagged &b) {
                         return a.ev.when < b.ev.when;
                     });

    const double usPerCycle = 1.0 / cfg.cyclesPerMicrosecond;
    std::string out;
    out.reserve(all.size() * 120 + 256);
    out += "{\"traceEvents\":[";
    bool first = true;
    for (const Tagged &t : all) {
        const TraceEvent &ev = t.ev;
        if (!first)
            out += ",\n";
        first = false;
        const double ts = static_cast<double>(ev.when) * usPerCycle;
        if (traceKindIsCounter(ev.kind)) {
            out += "{\"name\":" + jsonQuote(traceKindName(ev.kind));
            out += strFormat(",\"cat\":\"counter\",\"ph\":\"C\","
                             "\"ts\":%.3f,\"pid\":0,\"tid\":%zu,"
                             "\"args\":{\"value\":",
                             ts, t.tid);
            out += jsonNumber(traceDecodeValue(ev.arg0), 6);
            out += "}}";
            continue;
        }
        out += "{\"name\":" + jsonQuote(traceKindName(ev.kind));
        out += strFormat(
            ",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"g\","
            "\"ts\":%.3f,\"pid\":0,\"tid\":%zu,\"args\":{",
            traceCategoryName(traceCategoryOf(ev.kind)), ts, t.tid);
        const std::uint64_t args[3] = {ev.arg0, ev.arg1, ev.arg2};
        bool firstArg = true;
        for (std::size_t i = 0; i < 3; ++i) {
            const char *name = traceArgName(ev.kind, i);
            if (!name)
                continue;
            if (!firstArg)
                out += ",";
            firstArg = false;
            out += strFormat("\"%s\":%" PRIu64, name, args[i]);
        }
        out += "}}";
    }
    const RingStats s = stats();
    out += strFormat(
        "],\n\"displayTimeUnit\":\"ms\","
        "\"otherData\":{\"recorded\":%" PRIu64 ",\"dropped\":%" PRIu64
        ",\"cycles_per_us\":%.3f}}\n",
        s.recorded, s.dropped, cfg.cyclesPerMicrosecond);
    return out;
}

void
TraceSink::writeChromeJson(const std::string &path) const
{
    const std::string json = toChromeJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("trace: cannot open '%s' for writing", path.c_str());
    const std::size_t wrote =
        std::fwrite(json.data(), 1, json.size(), f);
    if (std::fclose(f) != 0 || wrote != json.size())
        fatal("trace: short write to '%s'", path.c_str());
}

void
TraceSink::dumpRecentForGroup(std::uint64_t group, std::size_t n) const
{
    const std::vector<TraceEvent> all = sortedEvents();
    // Keep the most recent n events that concern @p group; non-group
    // kinds (ISA/OS/counter context) are retained alongside them.
    std::vector<const TraceEvent *> window;
    std::size_t groupHits = 0;
    for (auto it = all.rbegin(); it != all.rend() && groupHits < n;
         ++it) {
        const bool hasGroup = traceKindHasGroup(it->kind);
        if (hasGroup && it->arg0 != group)
            continue;
        if (hasGroup)
            ++groupHits;
        window.push_back(&*it);
    }

    std::string dump = strFormat(
        "trace: last %zu events for group %" PRIu64
        " (plus non-group context), most recent last:\n",
        groupHits, group);
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
        const TraceEvent &ev = **it;
        dump += strFormat("  [%12" PRIu64 "] %-18s", ev.when,
                          traceKindName(ev.kind));
        if (traceKindIsCounter(ev.kind)) {
            dump += strFormat(" value=%.6g\n",
                              traceDecodeValue(ev.arg0));
            continue;
        }
        const std::uint64_t args[3] = {ev.arg0, ev.arg1, ev.arg2};
        for (std::size_t i = 0; i < 3; ++i) {
            const char *name = traceArgName(ev.kind, i);
            if (name)
                dump += strFormat(" %s=%" PRIu64, name, args[i]);
        }
        dump += "\n";
    }
    std::fputs(dump.c_str(), stderr);
}

std::string
perCellObsPath(const std::string &base, std::size_t cell,
               const std::string &design, const std::string &app)
{
    auto sanitize = [](const std::string &label) {
        std::string out = label;
        for (char &c : out) {
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '.' ||
                            c == '_' || c == '-';
            if (!ok)
                c = '-';
        }
        return out;
    };
    const std::string tag = strFormat(
        ".cell%zu.%s.%s", cell, sanitize(design).c_str(),
        sanitize(app).c_str());
    const std::size_t dot = base.rfind('.');
    const std::size_t slash = base.rfind('/');
    const bool hasExt =
        dot != std::string::npos &&
        (slash == std::string::npos || dot > slash);
    if (hasExt)
        return base.substr(0, dot) + tag + base.substr(dot);
    return base + tag;
}

} // namespace chameleon
