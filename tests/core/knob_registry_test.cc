/** @file Tests for the knob descriptor registry. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/knob_registry.hh"
#include "services/services.hh"
#include "sim/service_sim.hh"

namespace softsku {
namespace {

/** A config with every legacy knob off its default. */
KnobConfig
legacyExample()
{
    KnobConfig cfg;
    cfg.coreFreqGHz = 1.8;
    cfg.uncoreFreqGHz = 1.5;
    cfg.activeCores = 10;
    cfg.cdp = {true, 6, 5};
    cfg.prefetch = PrefetcherPreset::DcuOnly;
    cfg.thp = ThpMode::Never;
    cfg.shpCount = 400;
    return cfg;
}

TEST(KnobRegistry, CoversEveryKnobIdExactlyOnce)
{
    EXPECT_EQ(knobRegistry().size(), 10u);
    for (KnobId id : allKnobIds()) {
        const KnobDescriptor &d = knobDescriptor(id);
        EXPECT_EQ(d.id, id);
        EXPECT_EQ(findKnobDescriptor(d.key), &d) << d.key;
        // Every hook is populated — no partially wired descriptors.
        EXPECT_NE(d.domain, nullptr) << d.key;
        EXPECT_NE(d.apply, nullptr) << d.key;
        EXPECT_NE(d.capture, nullptr) << d.key;
        EXPECT_NE(d.writeJson, nullptr) << d.key;
        EXPECT_NE(d.readJson, nullptr) << d.key;
        EXPECT_NE(d.describeFragment, nullptr) << d.key;
        EXPECT_STRNE(d.displayName, "") << d.key;
    }
    EXPECT_EQ(findKnobDescriptor("bogus"), nullptr);
}

TEST(KnobRegistry, KeyListNamesEveryKnob)
{
    std::string keys = knobKeyList();
    for (const KnobDescriptor &d : knobRegistry())
        EXPECT_NE(keys.find(d.key), std::string::npos) << d.key;
}

/**
 * Property: for every knob, every domain value survives
 * apply → capture → JSON → parse → capture unchanged.  The far-memory
 * platform makes every knob's domain meaningful.
 */
TEST(KnobRegistry, DomainValuesRoundTripThroughJson)
{
    const PlatformSpec &platform = skylake18cxl();
    const WorkloadProfile &profile = webProfile();
    for (KnobId id : allKnobIds()) {
        for (const KnobValue &value : knobDomain(id, platform, profile)) {
            KnobConfig config;
            value.applyTo(config);
            KnobConfig parsed = KnobConfig::fromJson(config.toJson()).value();
            EXPECT_EQ(parsed, config)
                << knobKey(id) << " = " << value.label;
            EXPECT_EQ(KnobValue::fromConfig(id, parsed),
                      KnobValue::fromConfig(id, config))
                << knobKey(id) << " = " << value.label;
        }
    }
}

TEST(KnobRegistry, LegacyDescribeStringIsStable)
{
    // The exact pre-registry format, byte for byte — memo and cache
    // keys depend on it.
    EXPECT_EQ(legacyExample().describe(),
              "core=1.8GHz uncore=1.5GHz cores=10 cdp={6d,5c} "
              "pf=dcu_only thp=never shp=400");
    EXPECT_EQ(KnobConfig{}.describe(),
              "core=2.2GHz uncore=1.8GHz cores=all cdp=off pf=all_on "
              "thp=always shp=0");
}

TEST(KnobRegistry, MemoryTierFragmentsAppendAfterLegacyKnobs)
{
    KnobConfig cfg = legacyExample();
    cfg.mbaPercent = 50;
    cfg.tierPolicy = TierPolicy::Balanced;
    cfg.farMemRatio = 0.25;
    EXPECT_EQ(cfg.describe(),
              "core=1.8GHz uncore=1.5GHz cores=10 cdp={6d,5c} "
              "pf=dcu_only thp=never shp=400 mba=50 tier=balanced "
              "far=0.25");
}

TEST(KnobRegistry, LegacyJsonEmitsExactlySevenKeys)
{
    Json doc = legacyExample().toJson();
    ASSERT_TRUE(doc.contains("knobs"));
    const Json &knobs = doc.at("knobs");
    EXPECT_EQ(knobs.size(), 7u);
    for (const char *key : {"core_freq", "uncore_freq", "core_count",
                            "cdp", "prefetcher", "thp", "shp"}) {
        EXPECT_TRUE(knobs.contains(key)) << key;
    }
}

TEST(KnobRegistry, MemoryTierJsonKeysAppearOnlyWhenNonDefault)
{
    KnobConfig cfg;
    cfg.mbaPercent = 70;
    cfg.tierPolicy = TierPolicy::Aggressive;
    cfg.farMemRatio = 0.4;
    const Json knobs = cfg.toJson().at("knobs");
    EXPECT_EQ(knobs.numberOr("mba", 0), 70);
    EXPECT_EQ(knobs.stringOr("tier_policy", ""), "aggressive");
    EXPECT_DOUBLE_EQ(knobs.numberOr("far_mem_ratio", 0.0), 0.4);

    KnobConfig parsed = KnobConfig::fromJson(cfg.toJson()).value();
    EXPECT_EQ(parsed, cfg);
}

TEST(KnobRegistry, MemoryTierKnobsGateOnFarMemoryPlatforms)
{
    for (KnobId id :
         {KnobId::Mba, KnobId::TierPolicyKnob, KnobId::FarMemRatio}) {
        const KnobDescriptor &d = knobDescriptor(id);
        ASSERT_NE(d.availableOn, nullptr) << d.key;
        EXPECT_FALSE(d.availableOn(skylake18())) << d.key;
        EXPECT_FALSE(d.availableOn(broadwell16())) << d.key;
        EXPECT_TRUE(d.availableOn(skylake18cxl())) << d.key;
        EXPECT_FALSE(d.requiresReboot) << d.key;
    }
    // Legacy knobs carry no availability gate.
    EXPECT_EQ(knobDescriptor(KnobId::Thp).availableOn, nullptr);
}

TEST(KnobRegistry, FlatV2DocumentsStillParse)
{
    // A schema-2 report fragment, exactly as PR-8-era tools wrote it.
    auto [doc, ok] = Json::parse(R"({
        "core_freq_ghz": 1.8,
        "uncore_freq_ghz": 1.5,
        "active_cores": 10,
        "cdp": {"enabled": true, "data_ways": 6, "code_ways": 5},
        "prefetcher": "dcu_only",
        "thp": "never",
        "shp_count": 400
    })");
    ASSERT_TRUE(ok);
    KnobConfig parsed = KnobConfig::fromJson(doc).value();
    EXPECT_EQ(parsed, legacyExample());
    EXPECT_EQ(parsed.mbaPercent, 100);
    EXPECT_EQ(parsed.tierPolicy, TierPolicy::Static);
    EXPECT_DOUBLE_EQ(parsed.farMemRatio, 0.0);
}

TEST(KnobRegistry, AffectsEventsMatchesTheSimulator)
{
    // Every registered knob's whole domain, at a tiny window, on the
    // platform where all knobs exist: the event pass must move for some
    // value iff the descriptor says it can.  A wrong false would let
    // configurations share an event pass they do not share.
    const PlatformSpec &platform = skylake18cxl();
    const WorkloadProfile &profile = webProfile();
    SimOptions opts;
    opts.warmupInstructions = 20'000;
    opts.measureInstructions = 30'000;
    const KnobConfig base = stockConfig(platform, profile);
    const EventSummary baseEvents =
        runEvents(profile, platform, base, opts);

    for (const KnobDescriptor &d : knobRegistry()) {
        SCOPED_TRACE(d.key);
        bool moved = false;
        for (const KnobValue &value : d.domain(platform, profile)) {
            KnobConfig config = base;
            d.apply(value, config);
            moved |= !(runEvents(profile, platform, config, opts) ==
                       baseEvents);
        }
        EXPECT_EQ(moved, d.affectsEvents);
    }
}

TEST(KnobRegistry, EventKnobsKeepsExactlyTheEventKnobs)
{
    const PlatformSpec &platform = skylake18cxl();
    KnobConfig config = legacyExample();
    config.mbaPercent = 70;
    config.tierPolicy = TierPolicy::Aggressive;
    config.farMemRatio = 0.40;
    const KnobConfig projected = eventKnobs(config, platform);
    const KnobConfig unconfigured = actuatedKnobs(KnobConfig{}, platform);
    for (const KnobDescriptor &d : knobRegistry()) {
        SCOPED_TRACE(d.key);
        const KnobConfig &expected = d.affectsEvents ? config : unconfigured;
        EXPECT_EQ(d.capture(projected).label, d.capture(expected).label);
    }
}

/**
 * Every byte a knob value renders to — its label, the describe() of a
 * production config holding it, and that config's JSON — for every
 * platform, service and registered knob's domain value, pinned against
 * tests/data/knob_registry_bytes.txt.  describe() strings are memo and
 * A/B cache keys and the JSON is report and cache content, so a
 * refactor of the registry must not move any of them.  Regenerate after
 * an intentional change with SOFTSKU_UPDATE_GOLDENS=1.
 */
TEST(KnobRegistry, RenderedBytesMatchThePin)
{
    std::string actual;
    for (const PlatformSpec *platform : allPlatforms()) {
        for (const WorkloadProfile *profile : allMicroservices()) {
            const KnobConfig base = productionConfig(*platform, *profile);
            for (KnobId id : allKnobIds()) {
                for (const KnobValue &value :
                     knobDomain(id, *platform, *profile)) {
                    KnobConfig config = base;
                    value.applyTo(config);
                    actual += platform->name + " " + profile->name + " " +
                              knobKey(id) + " | " + value.label + " | " +
                              config.describe() + " | " +
                              config.toJson().dump() + "\n";
                }
            }
        }
    }

    const std::string path =
        std::string(SOFTSKU_TEST_DATA_DIR) + "/knob_registry_bytes.txt";
    const char *update = std::getenv("SOFTSKU_UPDATE_GOLDENS");
    if (update != nullptr && std::string(update) == "1") {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing pin " << path;
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str());
}

TEST(KnobRegistryDeathTest, UnknownKeyListsValidKeys)
{
    EXPECT_EXIT(knobFromKey("bogus"), testing::ExitedWithCode(1),
                "unknown knob 'bogus'.*core_freq.*far_mem_ratio");
}

} // namespace
} // namespace softsku
