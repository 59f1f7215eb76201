/** @file Tests for THP/SHP policy and the page mapper. */

#include <gtest/gtest.h>

#include "os/context_switch.hh"
#include "os/hugepage.hh"
#include "os/kernelfs.hh"

namespace softsku {
namespace {

std::vector<VirtualRegion>
twoRegions()
{
    VirtualRegion code;
    code.name = "text";
    code.kind = RegionKind::Code;
    code.base = 0x10000000;
    code.sizeBytes = 64ull << 20;
    code.usesShpApi = true;
    code.thpFriendliness = 0.5;

    VirtualRegion heap;
    heap.name = "heap";
    heap.kind = RegionKind::Heap;
    heap.base = 0x40000000;
    heap.sizeBytes = 128ull << 20;
    heap.madviseHuge = true;
    heap.thpFriendliness = 1.0;
    return {code, heap};
}

TEST(HugePage, ThpModeParsing)
{
    EXPECT_EQ(thpModeFromString("always"), ThpMode::Always);
    EXPECT_EQ(thpModeFromString("MADVISE"), ThpMode::Madvise);
    EXPECT_EQ(thpModeName(ThpMode::Never), "never");
    for (ThpMode mode : allThpModes())
        EXPECT_EQ(thpModeFromString(thpModeName(mode)), mode);
    EXPECT_EQ(allThpModes().size(), 3u);
}

TEST(HugePage, PolicyKernelFsRoundTrip)
{
    KernelFs fs;
    HugePagePolicy policy{ThpMode::Always, 300};
    policy.applyTo(fs);
    HugePagePolicy readBack = HugePagePolicy::fromKernelFs(fs);
    EXPECT_EQ(readBack.thp, ThpMode::Always);
    EXPECT_EQ(readBack.shpCount, 300);
}

TEST(PageMapper, NeverModeWithoutShpIsAll4k)
{
    PageMapper mapper(twoRegions(), {ThpMode::Never, 0});
    EXPECT_EQ(mapper.totalHugeBytes(), 0u);
    EXPECT_EQ(mapper.pageSizeAt(0x10000000), kPage4k);
    EXPECT_EQ(mapper.pageSizeAt(0x40000000), kPage4k);
}

TEST(PageMapper, MadviseCoversOnlyAdvisedRegions)
{
    PageMapper mapper(twoRegions(), {ThpMode::Madvise, 0});
    const auto &mappings = mapper.mappings();
    EXPECT_DOUBLE_EQ(mappings[0].hugeFraction, 0.0);   // code not advised
    EXPECT_DOUBLE_EQ(mappings[1].hugeFraction, 1.0);   // heap advised
}

TEST(PageMapper, AlwaysAppliesFriendliness)
{
    PageMapper mapper(twoRegions(), {ThpMode::Always, 0});
    const auto &mappings = mapper.mappings();
    EXPECT_NEAR(mappings[0].hugeFraction, 0.5, 0.05);
    EXPECT_DOUBLE_EQ(mappings[1].hugeFraction, 1.0);
}

TEST(PageMapper, ShpConsumedByApiRegionsOnly)
{
    // 40 SHPs = 80 MiB; the 64 MiB code region consumes it first.
    PageMapper mapper(twoRegions(), {ThpMode::Never, 40});
    const auto &mappings = mapper.mappings();
    EXPECT_EQ(mappings[0].hugeBytes, 64ull << 20);
    EXPECT_EQ(mappings[1].hugeBytes, 0u);
    EXPECT_EQ(mapper.wastedShpBytes(), 16ull << 20);
}

TEST(PageMapper, ShpPartialCoverage)
{
    // 10 SHPs = 20 MiB of a 64 MiB region.
    PageMapper mapper(twoRegions(), {ThpMode::Never, 10});
    EXPECT_EQ(mapper.mappings()[0].hugeBytes, 20ull << 20);
    EXPECT_EQ(mapper.wastedShpBytes(), 0u);
    EXPECT_NEAR(mapper.mappings()[0].hugeFraction, 20.0 / 64.0, 1e-9);
}

TEST(PageMapper, HugeAddressDecisionIsDeterministic)
{
    PageMapper mapper(twoRegions(), {ThpMode::Never, 10});
    const RegionMapping &m = mapper.mappings()[0];
    // Same address → same page size, always.
    for (std::uint64_t addr = 0x10000000; addr < 0x10000000 + (8 << 20);
         addr += 1 << 20) {
        EXPECT_EQ(m.isHugeAddress(addr), m.isHugeAddress(addr));
        EXPECT_EQ(mapper.pageSizeAt(addr), mapper.pageSizeAt(addr));
    }
    // Fraction of huge 2 MiB chunks tracks hugeFraction.
    int huge = 0, total = 0;
    for (std::uint64_t addr = 0x10000000;
         addr < 0x10000000 + (64ull << 20); addr += kPage2m) {
        huge += m.isHugeAddress(addr);
        ++total;
    }
    EXPECT_NEAR(static_cast<double>(huge) / total, m.hugeFraction, 0.15);
}

TEST(PageMapper, UnknownAddressFallsBackTo4k)
{
    PageMapper mapper(twoRegions(), {ThpMode::Always, 100});
    EXPECT_EQ(mapper.pageSizeAt(0xDEAD00000000ull), kPage4k);
    EXPECT_EQ(mapper.mappingFor(0xDEAD00000000ull), nullptr);
}

TEST(ContextSwitch, PenaltyBounds)
{
    ContextSwitchModel csw;
    csw.switchesPerSecond = 100000.0;
    csw.cost = {1.2, 2.2};
    EXPECT_NEAR(csw.penaltyFractionLower(), 0.12, 1e-9);
    EXPECT_NEAR(csw.penaltyFractionUpper(), 0.22, 1e-9);
    EXPECT_NEAR(csw.penaltyFractionMid(), 0.17, 1e-9);
    EXPECT_EQ(csw.instructionsBetweenSwitches(2.2e9), 22000u);
    csw.switchesPerSecond = 0.0;
    EXPECT_EQ(csw.instructionsBetweenSwitches(2.2e9), 0u);
}

} // namespace
} // namespace softsku
