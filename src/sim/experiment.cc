#include "sim/experiment.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

namespace chameleon
{

BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next_raw = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", flag.c_str());
            return argv[++i];
        };
        // Numeric values are parsed strictly: the whole token must be
        // one number. "--jobs 4x" or "--seed banana" used to slip
        // through strtoull as 4 and 0; a typo'd value must be as
        // fatal as a typo'd flag.
        auto next_val = [&]() -> std::uint64_t {
            const char *raw = next_raw();
            char *end = nullptr;
            errno = 0;
            const std::uint64_t v = std::strtoull(raw, &end, 0);
            if (*raw == '-' || end == raw || *end != '\0' ||
                errno == ERANGE)
                fatal("%s expects a non-negative integer, got '%s'",
                      flag.c_str(), raw);
            return v;
        };
        auto next_double = [&]() -> double {
            const char *raw = next_raw();
            char *end = nullptr;
            errno = 0;
            const double v = std::strtod(raw, &end);
            if (end == raw || *end != '\0' || errno == ERANGE ||
                !std::isfinite(v))
                fatal("%s expects a number, got '%s'", flag.c_str(),
                      raw);
            return v;
        };
        if (flag == "--scale") {
            opts.scale = next_val();
        } else if (flag == "--instr") {
            opts.instrPerCore = next_val();
        } else if (flag == "--refs") {
            opts.minRefsPerCore = next_val();
        } else if (flag == "--seed") {
            opts.seed = next_val();
        } else if (flag == "--warmup-frac") {
            opts.warmupFrac = next_double();
        } else if (flag == "--stacked-gib") {
            opts.stackedFullGiB = next_val();
        } else if (flag == "--offchip-gib") {
            opts.offchipFullGiB = next_val();
        } else if (flag == "--jobs") {
            const std::uint64_t n = next_val();
            if (n == 0)
                fatal("--jobs must be at least 1 (use --jobs 1 for "
                      "a sequential run)");
            if (n > 4096)
                fatal("--jobs %llu is not plausible (max 4096)",
                      static_cast<unsigned long long>(n));
            opts.jobs = static_cast<unsigned>(n);
        } else if (flag == "--json") {
            opts.jsonPath = next_raw();
            if (opts.jsonPath.empty())
                fatal("--json requires a non-empty path");
        } else if (flag == "--oracle") {
            opts.oracle = true;
        } else if (flag == "--faults") {
            opts.faultRate = next_double();
        } else if (flag == "--fault-stuck") {
            opts.faultStuck = next_double();
        } else if (flag == "--fault-spikes") {
            opts.faultSpikes = next_double();
        } else if (flag == "--checkpoint") {
            opts.checkpointPath = next_raw();
            if (opts.checkpointPath.empty())
                fatal("--checkpoint requires a non-empty path");
        } else if (flag == "--timeout") {
            opts.cellTimeoutSec = next_double();
            if (opts.cellTimeoutSec <= 0.0)
                fatal("--timeout must be positive (omit the flag "
                      "for no per-cell budget)");
        } else if (flag == "--retries") {
            const std::uint64_t n = next_val();
            if (n > 100)
                fatal("--retries %llu is not plausible (max 100)",
                      static_cast<unsigned long long>(n));
            opts.maxRetries = static_cast<unsigned>(n);
        } else if (flag == "--trace") {
            opts.tracePath = next_raw();
            if (opts.tracePath.empty())
                fatal("--trace requires a non-empty path");
        } else if (flag == "--metrics") {
            opts.metricsPath = next_raw();
            if (opts.metricsPath.empty())
                fatal("--metrics requires a non-empty path");
        } else if (flag == "--metrics-interval") {
            opts.metricsIntervalCycles = next_val();
            if (opts.metricsIntervalCycles == 0)
                fatal("--metrics-interval must be positive");
        } else if (flag == "--quiet") {
            setQuiet(true);
        } else if (flag == "--help") {
            std::fprintf(
                stderr,
                "flags: --scale N --instr N --refs N --seed N "
                "--stacked-gib N --offchip-gib N --jobs N "
                "--json PATH --oracle --quiet "
                "--faults R --fault-stuck F --fault-spikes R "
                "--checkpoint PATH --timeout SEC --retries N "
                "--trace PATH --metrics PATH --metrics-interval N\n");
            std::exit(0);
        } else {
            // No prefix tolerance: "--orcale" must not silently run
            // without the oracle. (google-benchmark binaries parse
            // their own argv and never reach this function.)
            fatal("unknown flag %s (try --help)", flag.c_str());
        }
    }
    if (opts.scale == 0)
        fatal("--scale must be positive");
    if (opts.offchipFullGiB == 0)
        fatal("--offchip-gib must be positive (the off-chip pool "
              "is mandatory)");
    if (opts.instrPerCore == 0 && opts.minRefsPerCore == 0)
        fatal("--instr 0 with --refs 0 leaves nothing to run");
    if (opts.warmupFrac < 0.0)
        fatal("--warmup-frac must be non-negative");
    for (double r : {opts.faultRate, opts.faultStuck, opts.faultSpikes})
        if (r < 0.0 || r > 1.0)
            fatal("fault rates must lie in [0, 1]");
    return opts;
}

SystemConfig
makeSystemConfig(Design design, const BenchOptions &opts)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.scale = opts.scale;
    cfg.stackedFullBytes = opts.stackedFullGiB * 1_GiB;
    cfg.offchipFullBytes = opts.offchipFullGiB * 1_GiB;
    cfg.seed = opts.seed;
    cfg.oracle = opts.oracle;
    if (opts.faultsRequested()) {
        cfg.faults.enabled = true;
        cfg.faults.seed = opts.seed;
        cfg.faults.transientFlipRate = opts.faultRate;
        // A small share of flips hit two bits, and the SRRT metadata
        // sees roughly a tenth of the data-path event rate (it is a
        // much smaller SRAM/DRAM footprint); 1% of either kind is
        // uncorrectable and drives segment retirement.
        cfg.faults.doubleFlipFraction = opts.faultRate > 0.0 ? 0.01
                                                             : 0.0;
        cfg.faults.srrtCorruptionRate = opts.faultRate / 10.0;
        cfg.faults.srrtUncorrectableFraction =
            opts.faultRate > 0.0 ? 0.01 : 0.0;
        cfg.faults.stuckSegmentFraction = opts.faultStuck;
        cfg.faults.spikeRate = opts.faultSpikes;
    }
    cfg.obs.tracePath = opts.tracePath;
    cfg.obs.metricsPath = opts.metricsPath;
    cfg.obs.metricsIntervalCycles = opts.metricsIntervalCycles;
    return cfg;
}

std::uint64_t
effectiveInstructions(const AppProfile &profile, const BenchOptions &opts)
{
    if (profile.llcMpki <= 0.0)
        fatal("profile %s has non-positive MPKI %.3f; cannot derive "
              "an instruction count from --refs",
              profile.name.c_str(), profile.llcMpki);
    const auto by_refs = static_cast<std::uint64_t>(
        static_cast<double>(opts.minRefsPerCore) * 1000.0 /
        profile.llcMpki);
    const std::uint64_t instr = std::max(opts.instrPerCore, by_refs);
    if (instr == 0)
        fatal("effective instruction count is zero for %s "
              "(raise --instr or --refs)", profile.name.c_str());
    return instr;
}

RunResult
runRateWorkload(Design design, const AppProfile &profile,
                const BenchOptions &opts)
{
    return runRateWorkload(makeSystemConfig(design, opts), profile,
                           opts);
}

RunResult
runRateWorkload(const SystemConfig &config, const AppProfile &profile,
                const BenchOptions &opts)
{
    System sys(config);
    sys.loadRateWorkload(profile);
    const std::uint64_t instr = effectiveInstructions(profile, opts);
    const auto warmup = static_cast<std::uint64_t>(
        static_cast<double>(instr) * opts.warmupFrac);
    return sys.run(instr, warmup);
}

} // namespace chameleon
