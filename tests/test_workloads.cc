/**
 * @file
 * Workload generator tests: Table II fidelity (MPKI, footprint),
 * locality structure, phase drift, and determinism — including a
 * parameterized sweep over the whole suite and a golden hash of every
 * app's reference stream.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workloads/profile.hh"
#include "workloads/trace_stream.hh"
#include "workloads/stream_gen.hh"

using namespace chameleon;

TEST(Profile, SuiteHasFourteenApps)
{
    EXPECT_EQ(tableTwoSuite().size(), 14u);
}

TEST(Profile, FindByName)
{
    const auto suite = tableTwoSuite();
    EXPECT_EQ(findProfile(suite, "mcf").llcMpki, 59.80);
    EXPECT_DEATH((void)findProfile(suite, "nonesuch"), "unknown");
}

TEST(Profile, ScalingDividesFootprintOnly)
{
    const auto full = tableTwoSuite(1);
    const auto scaled = tableTwoSuite(64);
    for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(scaled[i].footprintBytes,
                  full[i].footprintBytes / 64);
        EXPECT_EQ(scaled[i].llcMpki, full[i].llcMpki);
    }
}

TEST(Profile, TableTwoFootprints)
{
    const auto suite = tableTwoSuite(1);
    // Spot-check against Table II (GB values).
    EXPECT_NEAR(static_cast<double>(
                    findProfile(suite, "bwaves").footprintBytes) /
                    static_cast<double>(1_GiB),
                21.86, 0.01);
    EXPECT_NEAR(static_cast<double>(
                    findProfile(suite, "comd").footprintBytes) /
                    static_cast<double>(1_GiB),
                23.18, 0.01);
}

TEST(Profile, HighFootprintSubsetExists)
{
    const auto suite = tableTwoSuite();
    for (const auto &name : highFootprintNames())
        EXPECT_NO_FATAL_FAILURE((void)findProfile(suite, name));
}

TEST(StreamGen, Determinism)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "lbm");
    SyntheticStream a(p, 16_MiB, 42), b(p, 16_MiB, 42);
    for (int i = 0; i < 5000; ++i) {
        const MemOp x = a.next();
        const MemOp y = b.next();
        ASSERT_EQ(x.vaddr, y.vaddr);
        ASSERT_EQ(x.gap, y.gap);
        ASSERT_EQ(static_cast<int>(x.type), static_cast<int>(y.type));
    }
}

TEST(StreamGen, SeedsDiffer)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "lbm");
    SyntheticStream a(p, 16_MiB, 1), b(p, 16_MiB, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next().vaddr == b.next().vaddr)
            ++same;
    EXPECT_LT(same, 100);
}

TEST(StreamGen, AddressesWithinFootprint)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "mcf");
    const std::uint64_t fp = 8_MiB;
    SyntheticStream s(p, fp, 7);
    for (int i = 0; i < 20000; ++i)
        ASSERT_LT(s.next().vaddr, fp);
}

TEST(StreamGen, NoImmediateExactRepeats)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "mcf");
    SyntheticStream s(p, 8_MiB, 7);
    Addr prev = invalidAddr;
    int repeats = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = s.next().vaddr;
        if (a == prev)
            ++repeats;
        prev = a;
    }
    // Post-LLC streams should essentially never re-miss the block
    // they just fetched.
    EXPECT_LT(repeats, 20);
}

TEST(StreamGen, HotSetConcentration)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "cactusADM");
    const std::uint64_t fp = 16_MiB;
    SyntheticStream s(p, fp, 3);
    const std::uint64_t hot_bytes = static_cast<std::uint64_t>(
        p.hotFraction * static_cast<double>(fp));
    std::uint64_t hot_hits = 0;
    const int n = 50000;
    // Phase drift is small for cactusADM; measure over a short window
    // so the hot window stays near the origin.
    for (int i = 0; i < n; ++i)
        if (s.next().vaddr < hot_bytes + (1_MiB))
            ++hot_hits;
    EXPECT_GT(static_cast<double>(hot_hits) / n, 0.5);
}

TEST(StreamGen, PhaseRotationHappens)
{
    const auto suite = tableTwoSuite(64);
    AppProfile p = findProfile(suite, "cloverleaf");
    p.phaseInstructions = 10'000;
    SyntheticStream s(p, 8_MiB, 5);
    while (s.instructionsRetired() < 50'000)
        s.next();
    EXPECT_GE(s.phase(), 4u);
}

TEST(StreamGen, StationaryWithoutPhases)
{
    const auto suite = tableTwoSuite(64);
    AppProfile p = findProfile(suite, "lbm");
    p.phaseInstructions = 0;
    SyntheticStream s(p, 8_MiB, 5);
    while (s.instructionsRetired() < 100'000)
        s.next();
    EXPECT_EQ(s.phase(), 0u);
}

/** Parameterized fidelity sweep over the full Table II suite. */
class SuiteFidelity : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteFidelity, MpkiMatchesTableII)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = suite[static_cast<std::size_t>(GetParam())];
    SyntheticStream s(p, p.copyFootprint(), 11);
    const std::uint64_t refs = 40'000;
    for (std::uint64_t i = 0; i < refs; ++i)
        s.next();
    const double mpki = static_cast<double>(s.refsEmitted()) /
                        static_cast<double>(s.instructionsRetired()) *
                        1000.0;
    EXPECT_NEAR(mpki, p.llcMpki, p.llcMpki * 0.1)
        << p.name << ": measured MPKI off by more than 10%";
}

TEST_P(SuiteFidelity, WriteFractionMatches)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = suite[static_cast<std::size_t>(GetParam())];
    SyntheticStream s(p, p.copyFootprint(), 13);
    std::uint64_t writes = 0;
    const std::uint64_t refs = 40'000;
    for (std::uint64_t i = 0; i < refs; ++i)
        if (s.next().type == AccessType::Write)
            ++writes;
    EXPECT_NEAR(static_cast<double>(writes) / refs, p.writeFraction,
                0.02)
        << p.name;
}

TEST_P(SuiteFidelity, SequentialRunsPresent)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = suite[static_cast<std::size_t>(GetParam())];
    SyntheticStream s(p, p.copyFootprint(), 17);
    Addr prev = invalidAddr;
    std::uint64_t seq = 0;
    const std::uint64_t refs = 20'000;
    for (std::uint64_t i = 0; i < refs; ++i) {
        const Addr a = s.next().vaddr;
        if (prev != invalidAddr && a == prev + 64)
            ++seq;
        prev = a;
    }
    const double measured_run =
        1.0 / (1.0 - static_cast<double>(seq) / refs);
    EXPECT_NEAR(measured_run, p.seqRunBlocks,
                p.seqRunBlocks * 0.35)
        << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, SuiteFidelity,
                         ::testing::Range(0, 14));

TEST(TraceStream, ParsesAndReplays)
{
    const char *path = "/tmp/chameleon_test_trace.txt";
    std::FILE *f = std::fopen(path, "w");
    // A comment longer than any fixed line buffer, CRLF endings and
    // trailing blanks are all accepted.
    const std::string longComment = "# " + std::string(600, 'x') + "\n";
    std::fputs(longComment.c_str(), f);
    std::fputs("# demo trace\n"
               "R 0x1000 10\n"
               "W 4096 1 \r\n"
               "r 0x20040\n",
               f);
    std::fclose(f);
    TraceStream t(path);
    EXPECT_EQ(t.size(), 3u);
    MemOp a = t.next();
    EXPECT_EQ(a.vaddr, 0x1000u);
    EXPECT_EQ(static_cast<int>(a.type),
              static_cast<int>(AccessType::Read));
    EXPECT_EQ(a.gap, 10u);
    MemOp b = t.next();
    EXPECT_EQ(b.vaddr, 4096u);
    EXPECT_EQ(static_cast<int>(b.type),
              static_cast<int>(AccessType::Write));
    MemOp c = t.next();
    EXPECT_EQ(c.vaddr, 0x20040u / 64 * 64);
    // Wraps around.
    EXPECT_EQ(t.next().vaddr, 0x1000u);
    EXPECT_EQ(t.loops(), 1u);
    // Footprint covers the highest page touched.
    EXPECT_GE(t.footprint(), 0x20040u);
    EXPECT_EQ(t.footprint() % 4096, 0u);
}

TEST(TraceStream, RejectsGarbage)
{
    const char *path = "/tmp/chameleon_bad_trace.txt";
    std::FILE *f = std::fopen(path, "w");
    std::fputs("X 0x1000\n", f);
    std::fclose(f);
    EXPECT_DEATH(TraceStream{path}, "expected R/W");
    EXPECT_DEATH(TraceStream{"/nonexistent/file"}, "cannot open");

    // Every defect names the file and the (1-based) line it is on.
    const struct
    {
        const char *body;
        const char *error;
    } cases[] = {
        {"R -64\n", ":2: malformed address"},
        {"R +64\n", ":2: malformed address"},
        {"R\n", ":2: malformed address"},
        {"R 0x10000000000000000\n", ":2: malformed address"},
        {"R 0xfffffffffffff000\n", ":2: address .* out of range"},
        {"R 0x1000zz\n", ":2: trailing junk 'zz'"},
        {"R 0x1000 5 6\n", ":2: trailing junk '6'"},
        {"R 0x1000 abc\n", ":2: gap must be a positive integer"},
        {"R 0x1000 -1\n", ":2: gap must be a positive integer"},
        {"R 0x1000 0\n", ":2: gap must be a positive integer"},
        {"R 0x1000 99999999999999999999\n",
         ":2: gap must be a positive integer"},
    };
    for (const auto &c : cases) {
        f = std::fopen(path, "w");
        std::fputs("R 0x40\n", f);
        std::fputs(c.body, f);
        std::fclose(f);
        EXPECT_DEATH(TraceStream{path}, c.error) << c.body;
    }

    // A comment line longer than a fixed-size read buffer is still
    // one line: the defect after it is reported on line 2, not 3.
    f = std::fopen(path, "w");
    std::fputs(("# " + std::string(300, 'x') + "\n").c_str(), f);
    std::fputs("R 0x1000zz\n", f);
    std::fclose(f);
    EXPECT_DEATH(TraceStream{path}, ":2: trailing junk");
}

TEST(TraceStream, InMemoryConstruction)
{
    std::vector<MemOp> ops(4);
    ops[0].vaddr = 0;
    ops[1].vaddr = 64;
    ops[2].vaddr = 128;
    ops[3].vaddr = 8_KiB;
    TraceStream t(std::move(ops));
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.footprint(), 12_KiB);
}

#ifndef CHAM_GOLDEN_DIR
#error "build must define CHAM_GOLDEN_DIR"
#endif

namespace
{

/** FNV-1a over the little-endian bytes of @p v. */
void
fnvMix(std::uint64_t &h, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

/** "app seed hash phase" for the first 2^20 references of one copy. */
std::string
streamDigest(const AppProfile &p, std::uint64_t seed)
{
    SyntheticStream s(p, p.footprintBytes, seed);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < (1 << 20); ++i) {
        const MemOp op = s.next();
        fnvMix(h, op.vaddr, 8);
        fnvMix(h, static_cast<std::uint64_t>(op.type), 1);
        fnvMix(h, op.gap, 4);
    }
    char line[128];
    std::snprintf(line, sizeof(line), "%s %llu %016llx %llu",
                  p.name.c_str(), static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(h),
                  static_cast<unsigned long long>(s.phase()));
    return line;
}

} // namespace

/**
 * Every Table II app at scale 64, seeds 1 and 2, must reproduce the
 * checked-in stream hash exactly. Aggregate stats (the baseline and
 * the MPKI checks above) can absorb a changed draw; this cannot. On a
 * mismatch the computed table is printed, so an intentional model
 * change can regenerate tests/golden/streams.txt from the output.
 */
TEST(StreamGen, GoldenStreamHashes)
{
    std::ifstream in(std::string(CHAM_GOLDEN_DIR) + "/streams.txt");
    ASSERT_TRUE(in) << "missing tests/golden/streams.txt";
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            want.push_back(line);

    const auto suite = tableTwoSuite(64);
    std::vector<std::string> got;
    std::string table;
    for (const AppProfile &p : suite) {
        for (std::uint64_t seed : {1, 2}) {
            got.push_back(streamDigest(p, seed));
            table += got.back() + "\n";
        }
    }
    EXPECT_TRUE(want == got) << "computed table:\n" << table;
    if (want.size() == got.size()) {
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(want[i], got[i]);
    }
}
