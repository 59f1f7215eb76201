/** @file Tests for the four Intel prefetcher models and presets. */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "prefetch/config.hh"
#include "prefetch/prefetcher.hh"

namespace softsku {
namespace {

std::vector<std::uint64_t>
observe(Prefetcher &pf, std::uint64_t line, std::uint64_t pc, bool miss)
{
    std::vector<std::uint64_t> out;
    pf.observe(line, pc, miss, out);
    return out;
}

TEST(DcuNext, PrefetchesSuccessorOnMiss)
{
    DcuNextLinePrefetcher pf;
    auto hits = observe(pf, 100, 0, /*miss=*/false);
    EXPECT_TRUE(hits.empty());
    auto misses = observe(pf, 100, 0, /*miss=*/true);
    ASSERT_EQ(misses.size(), 1u);
    EXPECT_EQ(misses[0], 101u);
}

TEST(DcuIp, LocksOntoStride)
{
    DcuIpPrefetcher pf;
    const std::uint64_t pc = 0x4000;
    EXPECT_TRUE(observe(pf, 10, pc, true).empty());   // first sighting
    EXPECT_TRUE(observe(pf, 13, pc, true).empty());   // stride learned
    EXPECT_TRUE(observe(pf, 16, pc, true).empty());   // confidence 1
    auto out = observe(pf, 19, pc, true);             // confidence 2
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 22u);
}

TEST(DcuIp, StrideChangeResetsConfidence)
{
    DcuIpPrefetcher pf;
    const std::uint64_t pc = 0x4000;
    observe(pf, 10, pc, true);
    observe(pf, 12, pc, true);
    observe(pf, 14, pc, true);
    ASSERT_FALSE(observe(pf, 16, pc, true).empty());
    // Break the stride: confidence must be rebuilt from scratch.
    EXPECT_TRUE(observe(pf, 100, pc, true).empty());   // stride reset
    EXPECT_TRUE(observe(pf, 102, pc, true).empty());   // stride learned
    EXPECT_TRUE(observe(pf, 104, pc, true).empty());   // confidence 1
    ASSERT_FALSE(observe(pf, 106, pc, true).empty());  // confidence 2
}

TEST(DcuIp, DistinctPcsTrackedIndependently)
{
    DcuIpPrefetcher pf(256);
    // Interleave two streams on different PCs.
    for (int i = 0; i < 5; ++i) {
        observe(pf, 10 + i * 2, 0x1000, true);
        observe(pf, 500 + i * 7, 0x2000, true);
    }
    auto a = observe(pf, 20, 0x1000, true);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a[0], 22u);
    auto b = observe(pf, 535, 0x2000, true);
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(b[0], 542u);
}

TEST(L2Adjacent, BuddyLine)
{
    L2AdjacentPrefetcher pf;
    auto even = observe(pf, 100, 0, true);
    ASSERT_EQ(even.size(), 1u);
    EXPECT_EQ(even[0], 101u);
    auto odd = observe(pf, 101, 0, true);
    ASSERT_EQ(odd.size(), 1u);
    EXPECT_EQ(odd[0], 100u);
    EXPECT_TRUE(observe(pf, 100, 0, false).empty());
}

TEST(L2Stream, ArmsAfterTwoSameDirectionMisses)
{
    L2StreamPrefetcher pf(16, 2);
    std::uint64_t base = 64 * 10;   // region 10
    EXPECT_TRUE(observe(pf, base + 0, 0, true).empty());
    EXPECT_TRUE(observe(pf, base + 1, 0, true).empty());   // dir set
    auto out = observe(pf, base + 2, 0, true);             // armed
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], base + 3);
    EXPECT_EQ(out[1], base + 4);
}

TEST(L2Stream, DescendingStreams)
{
    L2StreamPrefetcher pf(16, 1);
    std::uint64_t base = 64 * 20 + 32;
    observe(pf, base, 0, true);
    observe(pf, base - 1, 0, true);
    auto out = observe(pf, base - 2, 0, true);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], base - 3);
}

TEST(L2Stream, IgnoresHits)
{
    L2StreamPrefetcher pf;
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(observe(pf, 100 + i, 0, /*miss=*/false).empty());
}

TEST(Presets, MatchPaperConfigurations)
{
    auto allOff = prefetcherSetFor(PrefetcherPreset::AllOff);
    EXPECT_FALSE(allOff.l2Stream || allOff.l2Adjacent || allOff.dcuNext ||
                 allOff.dcuIp);

    auto allOn = prefetcherSetFor(PrefetcherPreset::AllOn);
    EXPECT_TRUE(allOn.l2Stream && allOn.l2Adjacent && allOn.dcuNext &&
                allOn.dcuIp);

    auto dcuPair = prefetcherSetFor(PrefetcherPreset::DcuAndDcuIp);
    EXPECT_FALSE(dcuPair.l2Stream);
    EXPECT_FALSE(dcuPair.l2Adjacent);
    EXPECT_TRUE(dcuPair.dcuNext && dcuPair.dcuIp);

    auto bdwDefault = prefetcherSetFor(PrefetcherPreset::L2StreamAndDcu);
    EXPECT_TRUE(bdwDefault.l2Stream && bdwDefault.dcuNext);
    EXPECT_FALSE(bdwDefault.l2Adjacent || bdwDefault.dcuIp);
}

TEST(Presets, KeyRoundTrip)
{
    // The knob registry decodes a preset by searching these keys, so
    // each must name exactly one preset.
    std::set<std::string> keys;
    for (PrefetcherPreset preset : allPrefetcherPresets())
        EXPECT_TRUE(keys.insert(prefetcherPresetKey(preset)).second);
    EXPECT_EQ(allPrefetcherPresets().size(), 5u);
}

} // namespace
} // namespace softsku
