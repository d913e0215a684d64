/**
 * @file
 * Tests for the experiment/bench scaffolding: CLI parsing, config
 * factories, and the effective-instruction-count rule that keeps
 * low-MPKI applications statistically meaningful.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

using namespace chameleon;

namespace
{

BenchOptions
parse(std::initializer_list<const char *> args)
{
    std::vector<char *> argv;
    static char prog[] = "bench";
    argv.push_back(prog);
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Experiment, DefaultsAreSane)
{
    const BenchOptions o = parse({});
    EXPECT_EQ(o.scale, 64u);
    EXPECT_EQ(o.stackedFullGiB, 4u);
    EXPECT_EQ(o.offchipFullGiB, 20u);
    EXPECT_GT(o.instrPerCore, 0u);
}

TEST(Experiment, FlagsParse)
{
    const BenchOptions o =
        parse({"--scale", "16", "--instr", "12345", "--refs", "777",
               "--seed", "9", "--stacked-gib", "6", "--offchip-gib",
               "18"});
    EXPECT_EQ(o.scale, 16u);
    EXPECT_EQ(o.instrPerCore, 12345u);
    EXPECT_EQ(o.minRefsPerCore, 777u);
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.stackedFullGiB, 6u);
    EXPECT_EQ(o.offchipFullGiB, 18u);
}

TEST(Experiment, WarmupFracParses)
{
    const BenchOptions o = parse({"--warmup-frac", "0.25"});
    EXPECT_DOUBLE_EQ(o.warmupFrac, 0.25);
}

TEST(Experiment, UnknownFlagIsFatal)
{
    EXPECT_DEATH(parse({"--bogus"}), "unknown flag");
}

TEST(Experiment, ZeroScaleIsFatal)
{
    EXPECT_DEATH(parse({"--scale", "0"}), "positive");
}

// Regression: "--orcale" (and every other typo, including the
// formerly tolerated --benchmark* prefix) must error out rather than
// silently run without the requested feature.
TEST(Experiment, TypoedFlagsAreFatal)
{
    EXPECT_DEATH(parse({"--orcale"}), "unknown flag");
    EXPECT_DEATH(parse({"--benchmark_filter=.*"}), "unknown flag");
    EXPECT_DEATH(parse({"--time-out", "5"}), "unknown flag");
}

// Regression: numeric values must parse in full; trailing garbage or
// non-numeric tokens used to be truncated ("--jobs 4x" ran as 4) or
// read as zero ("--seed banana").
TEST(Experiment, MalformedNumericValuesAreFatal)
{
    EXPECT_DEATH(parse({"--jobs", "4x"}), "non-negative integer");
    EXPECT_DEATH(parse({"--seed", "banana"}), "non-negative integer");
    EXPECT_DEATH(parse({"--scale", "-3"}), "non-negative integer");
    EXPECT_DEATH(parse({"--faults", "0.1.2"}), "expects a number");
    EXPECT_DEATH(parse({"--timeout", "abc"}), "expects a number");
    // NaN slipped past every range check and reached a UB cast.
    EXPECT_DEATH(parse({"--faults", "nan"}), "expects a number");
    EXPECT_DEATH(parse({"--warmup-frac", "nan"}), "expects a number");
    EXPECT_DEATH(parse({"--timeout", "nan"}), "expects a number");
    EXPECT_DEATH(parse({"--timeout", "inf"}), "expects a number");
    EXPECT_DEATH(parse({"--fault-spikes", "-inf"}), "expects a number");
}

TEST(Experiment, NonPositiveKnobsAreFatal)
{
    EXPECT_DEATH(parse({"--jobs", "0"}), "at least 1");
    EXPECT_DEATH(parse({"--metrics-interval", "0"}), "positive");
    EXPECT_DEATH(parse({"--timeout", "0"}), "positive");
    EXPECT_DEATH(parse({"--timeout", "-2"}), "positive");
}

TEST(Experiment, ConfigFactoryAppliesOptions)
{
    BenchOptions o = parse({"--scale", "128", "--offchip-gib", "24"});
    const SystemConfig cfg = makeSystemConfig(Design::Pom, o);
    EXPECT_EQ(cfg.scale, 128u);
    EXPECT_EQ(cfg.offchipFullBytes, 24_GiB);
    EXPECT_EQ(cfg.offchipBytes(), 24_GiB / 128);
    EXPECT_EQ(static_cast<int>(cfg.design),
              static_cast<int>(Design::Pom));
}

TEST(Experiment, EffectiveInstructionsRaisesLowMpki)
{
    BenchOptions o;
    o.instrPerCore = 1'000'000;
    o.minRefsPerCore = 40'000;
    AppProfile hot;
    hot.llcMpki = 60.0; // high MPKI: the floor already suffices
    EXPECT_EQ(effectiveInstructions(hot, o), 1'000'000u);
    AppProfile cold;
    cold.llcMpki = 0.2; // low MPKI: needs 200M instructions
    EXPECT_EQ(effectiveInstructions(cold, o), 200'000'000u);
}
