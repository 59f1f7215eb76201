/** @file Tests for knob actuation and machine assembly. */

#include <gtest/gtest.h>

#include "services/services.hh"
#include "sim/machine.hh"

namespace softsku {
namespace {

KnobConfig
exampleKnobs()
{
    KnobConfig knobs;
    knobs.coreFreqGHz = 1.8;
    knobs.uncoreFreqGHz = 1.5;
    knobs.activeCores = 10;
    knobs.cdp = {true, 6, 5};
    knobs.prefetch = PrefetcherPreset::DcuOnly;
    knobs.thp = ThpMode::Never;
    knobs.shpCount = 400;
    return knobs;
}

TEST(Actuation, RoundTripsThroughMsrAndKernelFs)
{
    MsrFile msr;
    KernelFs fs;
    KnobConfig knobs = exampleKnobs();
    actuateKnobs(knobs, skylake18(), msr, fs);
    KnobConfig readBack = effectiveKnobs(msr, fs, skylake18());
    EXPECT_EQ(readBack, knobs);
}

TEST(Actuation, UnsetSurfacesResolveToDefaults)
{
    MsrFile msr;
    KernelFs fs;
    KnobConfig cfg = effectiveKnobs(msr, fs, skylake18());
    EXPECT_DOUBLE_EQ(cfg.coreFreqGHz, 2.2);
    EXPECT_DOUBLE_EQ(cfg.uncoreFreqGHz, 1.8);
    EXPECT_EQ(cfg.activeCores, 18);
    EXPECT_FALSE(cfg.cdp.enabled);
    EXPECT_EQ(cfg.prefetch, PrefetcherPreset::AllOn);
    EXPECT_EQ(cfg.thp, ThpMode::Madvise);
    EXPECT_EQ(cfg.shpCount, 0);
}

TEST(ActuationDeathTest, OutOfRangeFrequenciesFatal)
{
    MsrFile msr;
    KernelFs fs;
    KnobConfig knobs;
    knobs.coreFreqGHz = 3.5;
    EXPECT_EXIT(actuateKnobs(knobs, skylake18(), msr, fs),
                testing::ExitedWithCode(1), "core frequency");
    knobs = KnobConfig{};
    knobs.uncoreFreqGHz = 1.0;
    EXPECT_EXIT(actuateKnobs(knobs, skylake18(), msr, fs),
                testing::ExitedWithCode(1), "uncore frequency");
}

TEST(Machine, AssembledPerKnobs)
{
    Machine machine(skylake18(), exampleKnobs());
    EXPECT_DOUBLE_EQ(machine.coreFreqGHz(), 1.8);
    EXPECT_DOUBLE_EQ(machine.uncoreFreqGHz(), 1.5);
    EXPECT_EQ(machine.activeCores(), 10);

    // CDP masks applied to the LLC.
    EXPECT_EQ(machine.llc().wayMask(AccessType::Data), 0b00000111111u);
    EXPECT_EQ(machine.llc().wayMask(AccessType::Code), 0b11111000000u);

    // DcuOnly preset: exactly one L1 prefetcher, no L2 prefetchers.
    EXPECT_EQ(machine.l1Prefetchers().size(), 1u);
    EXPECT_TRUE(machine.l2Prefetchers().empty());
}

TEST(Machine, AllOnPrefetchers)
{
    KnobConfig knobs;
    Machine machine(skylake18(), knobs);
    EXPECT_EQ(machine.l1Prefetchers().size(), 2u);
    EXPECT_EQ(machine.l2Prefetchers().size(), 2u);
}

TEST(Machine, GeometriesMatchPlatform)
{
    Machine machine(skylake20(), KnobConfig{});
    EXPECT_EQ(machine.l1i().sets(), skylake20().l1i.sets());
    EXPECT_EQ(machine.llc().ways(), skylake20().llc.ways);
    EXPECT_EQ(machine.activeCores(), 40);
}

TEST(Machine, ResolvedCoresZeroMeansAll)
{
    KnobConfig knobs;
    knobs.activeCores = 0;
    EXPECT_EQ(knobs.resolvedCores(skylake18()), 18);
    knobs.activeCores = 99;
    EXPECT_EQ(knobs.resolvedCores(skylake18()), 18);
    knobs.activeCores = 4;
    EXPECT_EQ(knobs.resolvedCores(skylake18()), 4);
}

TEST(Machine, FlushAllClearsState)
{
    Machine machine(skylake18(), KnobConfig{});
    machine.l1d().access(42, AccessType::Data);
    machine.llc().access(42, AccessType::Data);
    machine.dtlb().access(0x42000, 4096);
    machine.flushAll();
    EXPECT_EQ(machine.l1d().residentLines(), 0u);
    EXPECT_EQ(machine.llc().residentLines(), 0u);
    EXPECT_FALSE(machine.dtlb().l1().probe(0x42000, 4096));
}

TEST(Knobs, StockAndProductionConfigs)
{
    KnobConfig stock = stockConfig(skylake18(), webProfile());
    EXPECT_DOUBLE_EQ(stock.coreFreqGHz, 2.2);
    EXPECT_EQ(stock.thp, ThpMode::Always);
    EXPECT_EQ(stock.shpCount, 0);

    // AVX cap: Ads1 runs 0.2 GHz lower.
    KnobConfig ads1Stock = stockConfig(skylake18(), ads1Profile());
    EXPECT_DOUBLE_EQ(ads1Stock.coreFreqGHz, 2.0);

    KnobConfig prod = productionConfig(skylake18(), webProfile());
    EXPECT_EQ(prod.thp, ThpMode::Madvise);
    EXPECT_EQ(prod.shpCount, 200);
    EXPECT_EQ(prod.prefetch, PrefetcherPreset::AllOn);

    KnobConfig prodBdw = productionConfig(broadwell16(), webProfile());
    EXPECT_EQ(prodBdw.shpCount, 488);
    EXPECT_EQ(prodBdw.prefetch, PrefetcherPreset::L2StreamAndDcu);

    KnobConfig prodAds = productionConfig(skylake18(), ads1Profile());
    EXPECT_EQ(prodAds.shpCount, 0);
}

TEST(Knobs, JsonRoundTrip)
{
    KnobConfig knobs = exampleKnobs();
    KnobConfig parsed = KnobConfig::fromJson(knobs.toJson()).value();
    EXPECT_EQ(parsed, knobs);
}

TEST(Knobs, DescribeMentionsEveryKnob)
{
    std::string text = exampleKnobs().describe();
    for (const char *token : {"1.8", "1.5", "10", "{6d,5c}", "dcu_only",
                              "never", "400"}) {
        EXPECT_NE(text.find(token), std::string::npos) << token;
    }
}

TEST(Knobs, RegistryComplete)
{
    EXPECT_EQ(allKnobIds().size(), 10u);
    for (KnobId id : allKnobIds())
        EXPECT_EQ(knobFromKey(knobKey(id)), id);
    EXPECT_TRUE(knobRequiresReboot(KnobId::CoreCount));
    EXPECT_TRUE(knobRequiresReboot(KnobId::Shp));
    EXPECT_FALSE(knobRequiresReboot(KnobId::Thp));
    // Memory-tier knobs actuate through runtime kernel files.
    EXPECT_FALSE(knobRequiresReboot(KnobId::Mba));
    EXPECT_FALSE(knobRequiresReboot(KnobId::TierPolicyKnob));
    EXPECT_FALSE(knobRequiresReboot(KnobId::FarMemRatio));
}

} // namespace
} // namespace softsku
