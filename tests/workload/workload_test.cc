/** @file Tests for profiles, address-space layout, and generators. */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

#include "services/services.hh"
#include "workload/address_space.hh"
#include "workload/codegen.hh"
#include "workload/datagen.hh"
#include "workload/profile.hh"

namespace softsku {
namespace {

TEST(Profile, AllServiceProfilesValidate)
{
    for (const WorkloadProfile *service : allMicroservices()) {
        SCOPED_TRACE(service->name);
        service->validate();   // fatal()s on failure
        EXPECT_NEAR(service->mix.sum(), 1.0, 0.02);
        EXPECT_GT(service->dataFootprintBytes(), 0u);
    }
}

TEST(ProfileDeathTest, BrokenMixIsFatal)
{
    WorkloadProfile p = webProfile();
    p.mix.branch = 0.9;
    EXPECT_EXIT(p.validate(), testing::ExitedWithCode(1),
                "instruction mix");
}

TEST(ProfileDeathTest, EmptyRegionsFatal)
{
    WorkloadProfile p = webProfile();
    p.dataRegions.clear();
    EXPECT_EXIT(p.validate(), testing::ExitedWithCode(1),
                "no data regions");
}

TEST(AddressSpace, RegionsDisjointAndAligned)
{
    AddressSpace space = layoutAddressSpace(webProfile());
    ASSERT_EQ(space.dataBases.size(), webProfile().dataRegions.size());
    ASSERT_EQ(space.pageRegions.size(), space.dataBases.size() + 1);

    std::uint64_t prevEnd = 0;
    for (const VirtualRegion &region : space.pageRegions) {
        EXPECT_GE(region.base, prevEnd);
        EXPECT_EQ(region.base % kPage2m, 0u);
        EXPECT_EQ(region.sizeBytes % kPage2m, 0u);
        prevEnd = region.base + region.sizeBytes;
    }
    EXPECT_EQ(space.pageRegions[0].kind, RegionKind::Code);
}

TEST(AddressSpace, Deterministic)
{
    AddressSpace a = layoutAddressSpace(feed1Profile());
    AddressSpace b = layoutAddressSpace(feed1Profile());
    EXPECT_EQ(a.codeBase, b.codeBase);
    EXPECT_EQ(a.dataBases, b.dataBases);
}

TEST(Codegen, PcStaysInsideCodeRegion)
{
    const WorkloadProfile &profile = webProfile();
    AddressSpace space = layoutAddressSpace(profile);
    CodeGenerator codegen(profile, space.codeBase, 1);
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t pc = codegen.pc();
        EXPECT_GE(pc, space.codeBase);
        EXPECT_LT(pc, space.codeBase + space.codeSize + 4096);
        if (i % 5 == 0)
            codegen.executeBranch();
        else
            codegen.advance();
    }
}

TEST(Codegen, DeterministicUnderSeed)
{
    const WorkloadProfile &profile = feed2Profile();
    AddressSpace space = layoutAddressSpace(profile);
    CodeGenerator a(profile, space.codeBase, 9);
    CodeGenerator b(profile, space.codeBase, 9);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_EQ(a.pc(), b.pc());
        if (i % 4 == 0) {
            EXPECT_EQ(a.executeBranch(), b.executeBranch());
        } else {
            a.advance();
            b.advance();
        }
    }
}

TEST(Codegen, ChurnRemapsFunctions)
{
    WorkloadProfile profile = webProfile();
    profile.jitChurnPerMInsn = 0.05;
    AddressSpace space = layoutAddressSpace(profile);
    CodeGenerator codegen(profile, space.codeBase, 2);

    std::vector<std::uint64_t> before;
    for (std::uint64_t f = 0; f < 200; ++f)
        before.push_back(codegen.functionAddress(f));
    codegen.applyChurn(10'000'000);
    int moved = 0;
    for (std::uint64_t f = 0; f < 200; ++f)
        moved += codegen.functionAddress(f) != before[f];
    EXPECT_GT(moved, 10);   // hot functions get remapped
}

TEST(Codegen, NoChurnKeepsAddressesStable)
{
    const WorkloadProfile &profile = feed1Profile();
    AddressSpace space = layoutAddressSpace(profile);
    CodeGenerator codegen(profile, space.codeBase, 3);
    std::uint64_t addr = codegen.functionAddress(7);
    codegen.applyChurn(50'000'000);
    EXPECT_EQ(codegen.functionAddress(7), addr);
}

TEST(Datagen, AddressesStayInsideRegions)
{
    const WorkloadProfile &profile = cache1Profile();
    AddressSpace space = layoutAddressSpace(profile);
    DataGenerator datagen(profile, space, 4);
    for (int i = 0; i < 50000; ++i) {
        DataAccess access = datagen.next();
        ASSERT_LT(access.regionIndex, profile.dataRegions.size());
        std::uint64_t base = space.dataBases[access.regionIndex];
        std::uint64_t size =
            profile.dataRegions[access.regionIndex].sizeBytes;
        EXPECT_GE(access.addr, base);
        EXPECT_LT(access.addr, base + size);
        EXPECT_GE(access.mlp, 1.0);
    }
}

TEST(Datagen, ConcurrentGeneratorsShareOneZipfTable)
{
    // Two simulations of one service alive at once (two sweep tasks)
    // build each popularity table once; the last one to end frees it.
    const WorkloadProfile &profile = webProfile();
    AddressSpace space = layoutAddressSpace(profile);
    std::uint32_t zipfRegion = 0;
    while (profile.dataRegions[zipfRegion].pattern != DataPattern::Random)
        ++zipfRegion;

    std::weak_ptr<const ZipfDistribution> table;
    {
        std::unique_ptr<DataGenerator> a, b;
        std::thread builder(
            [&] { a = std::make_unique<DataGenerator>(profile, space, 1); });
        b = std::make_unique<DataGenerator>(profile, space, 2);
        builder.join();

        ASSERT_NE(a->zipfTable(zipfRegion), nullptr);
        EXPECT_EQ(a->zipfTable(zipfRegion), b->zipfTable(zipfRegion));
        table = a->zipfTable(zipfRegion);
        a.reset();
        EXPECT_FALSE(table.expired());
    }
    EXPECT_TRUE(table.expired());
}

TEST(Datagen, ReuseFractionControlsDistinctLines)
{
    WorkloadProfile lowReuse = feed2Profile();
    lowReuse.dataReuseFraction = 0.2;
    WorkloadProfile highReuse = feed2Profile();
    highReuse.dataReuseFraction = 0.95;
    AddressSpace space = layoutAddressSpace(lowReuse);

    auto distinct = [&](const WorkloadProfile &p) {
        DataGenerator datagen(p, space, 5);
        std::set<std::uint64_t> lines;
        for (int i = 0; i < 20000; ++i)
            lines.insert(datagen.next().addr / 64);
        return lines.size();
    };
    EXPECT_GT(distinct(lowReuse), distinct(highReuse) * 2);
}

TEST(Datagen, StridedPatternHasStablePcAndStride)
{
    WorkloadProfile profile = feed1Profile();
    profile.dataReuseFraction = 0.0;
    profile.dataMidReuseFraction = 0.0;
    // Keep only the strided region.
    profile.dataRegions = {profile.dataRegions[0]};
    profile.dataRegions[0].weight = 1.0;
    AddressSpace space = layoutAddressSpace(profile);
    DataGenerator datagen(profile, space, 6);

    DataAccess first = datagen.next();
    DataAccess second = datagen.next();
    EXPECT_EQ(second.addr - first.addr,
              profile.dataRegions[0].strideBytes);
    EXPECT_NE(first.streamPc, 0u);
    EXPECT_EQ(first.streamPc, second.streamPc);
}

TEST(Datagen, PointerChaseHasUnitMlp)
{
    WorkloadProfile profile = ads2Profile();
    AddressSpace space = layoutAddressSpace(profile);
    DataGenerator datagen(profile, space, 7);
    bool sawChase = false;
    for (int i = 0; i < 20000; ++i) {
        DataAccess access = datagen.next();
        const DataRegionSpec &spec =
            profile.dataRegions[access.regionIndex];
        if (spec.pattern == DataPattern::PointerChase) {
            EXPECT_DOUBLE_EQ(access.mlp, 1.0);
            sawChase = true;
        }
    }
    EXPECT_TRUE(sawChase);
}

TEST(Datagen, HotBytesBoundsZipfDraws)
{
    WorkloadProfile profile = webProfile();
    profile.dataReuseFraction = 0.0;
    profile.dataMidReuseFraction = 0.0;
    // php_heap only, with no cold tail: every draw inside hotBytes.
    profile.dataRegions = {profile.dataRegions[0]};
    profile.dataRegions[0].weight = 1.0;
    profile.dataRegions[0].coldFraction = 0.0;
    AddressSpace space = layoutAddressSpace(profile);
    DataGenerator datagen(profile, space, 8);
    std::uint64_t base = space.dataBases[0];
    std::uint64_t hot = profile.dataRegions[0].hotBytes;
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(datagen.next().addr, base + hot);
}

} // namespace
} // namespace softsku
