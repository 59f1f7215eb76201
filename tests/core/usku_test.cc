/** @file End-to-end tests for μSKU: sweeps, composition, validation. */

#include <gtest/gtest.h>

#include "core/usku.hh"
#include "services/services.hh"

namespace softsku {
namespace {

SimOptions
fastOptions()
{
    SimOptions opts;
    opts.warmupInstructions = 150'000;
    opts.measureInstructions = 200'000;
    return opts;
}

InputSpec
spec(const char *service, const char *platform,
     std::vector<KnobId> knobs = {})
{
    InputSpec s;
    s.microservice = service;
    s.platform = platform;
    s.knobs = std::move(knobs);
    s.validationDurationSec = 6 * 3600.0;
    s.normalize();
    return s;
}

TEST(SoftSkuGenerator, ComposesPerKnobWinners)
{
    DesignSpaceMap map;
    map.baseline = productionConfig(skylake18(), webProfile());
    map.baselineMips = 10000.0;

    KnobSweep thp;
    thp.id = KnobId::Thp;
    KnobOutcome madvise;
    madvise.value = KnobValue::fromConfig(KnobId::Thp, map.baseline);
    madvise.isBaseline = true;
    KnobOutcome always;
    always.value.id = KnobId::Thp;
    always.value.thp = ThpMode::Always;
    always.value.label = "THP always";
    always.gainPercent = 2.0;
    always.significant = true;
    KnobOutcome never;
    never.value.id = KnobId::Thp;
    never.value.thp = ThpMode::Never;
    never.gainPercent = 5.0;
    never.significant = false;   // not significant: must be ignored
    thp.outcomes = {madvise, always, never};
    map.sweeps.push_back(thp);

    SoftSkuGenerator generator;
    KnobConfig composed = generator.compose(map);
    EXPECT_EQ(composed.thp, ThpMode::Always);
    EXPECT_EQ(composed.shpCount, map.baseline.shpCount);
}

TEST(SoftSkuGenerator, BaselineWinsWhenNothingSignificant)
{
    DesignSpaceMap map;
    map.baseline = productionConfig(skylake18(), webProfile());
    KnobSweep sweep;
    sweep.id = KnobId::UncoreFrequency;
    KnobOutcome base;
    base.value = KnobValue::fromConfig(KnobId::UncoreFrequency,
                                       map.baseline);
    base.isBaseline = true;
    KnobOutcome candidate;
    candidate.value.id = KnobId::UncoreFrequency;
    candidate.value.number = 1.4;
    candidate.gainPercent = -3.0;
    candidate.significant = true;   // significant LOSS: still rejected
    sweep.outcomes = {base, candidate};
    map.sweeps.push_back(sweep);

    SoftSkuGenerator generator;
    EXPECT_EQ(generator.compose(map), map.baseline);
}

TEST(Usku, IndependentSweepFindsWebWins)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    Usku tool(env);
    UskuReport report = tool.run(
        spec("web", "skylake18", {KnobId::Thp, KnobId::Shp}));

    // Paper-validated outcomes: THP always and 300 SHPs beat the
    // hand-tuned production configuration.
    EXPECT_EQ(report.softSku.thp, ThpMode::Always);
    EXPECT_EQ(report.softSku.shpCount, 300);
    EXPECT_GT(report.gainOverProductionPercent(), 1.0);
    EXPECT_TRUE(report.validation.stable);
    EXPECT_GT(report.measurementHours, 0.0);

    // The report serializes completely.
    Json doc = report.toJson();
    EXPECT_TRUE(doc.contains("design_space_map"));
    EXPECT_GT(doc.at("gain_over_production_percent").asNumber(), 1.0);
    EXPECT_FALSE(report.summary().empty());
}

TEST(Usku, SkipsInapplicableKnobsForAds1)
{
    ProductionEnvironment env(ads1Profile(), skylake18(), 1,
                              fastOptions());
    Usku tool(env);
    UskuReport report = tool.run(spec(
        "ads1", "skylake18",
        {KnobId::Shp, KnobId::CoreCount, KnobId::Thp}));
    EXPECT_EQ(report.plan.skipped.size(), 2u);
    ASSERT_EQ(report.plan.knobs.size(), 1u);
    EXPECT_EQ(report.plan.knobs[0].id, KnobId::Thp);
    // SHP stayed at its production value (0) — never swept.
    EXPECT_EQ(report.softSku.shpCount, 0);
}

TEST(Usku, ExhaustiveSweepSmallSubspace)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    Usku tool(env);
    InputSpec s = spec("web", "skylake18", {KnobId::Thp});
    s.sweep = SweepMode::Exhaustive;
    UskuReport report = tool.run(s);
    EXPECT_EQ(report.softSku.thp, ThpMode::Always);
}

TEST(UskuDeathTest, ExhaustiveSweepRefusesHugeSpaces)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    Usku tool(env);
    InputSpec s = spec("web", "skylake18");   // all 7 knobs
    s.sweep = SweepMode::Exhaustive;
    EXPECT_EXIT(tool.run(s), testing::ExitedWithCode(1), "exhaustive");
    // Halving walks the same bounded cross product.
    InputSpec halving = spec("web", "skylake18");
    halving.search = SearchMode::Halving;
    EXPECT_EXIT(tool.run(halving), testing::ExitedWithCode(1), "halving");
}

TEST(Usku, HillClimbFindsSameThpWin)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    Usku tool(env);
    InputSpec s = spec("web", "skylake18", {KnobId::Thp});
    s.sweep = SweepMode::HillClimb;
    UskuReport report = tool.run(s);
    EXPECT_EQ(report.softSku.thp, ThpMode::Always);
    EXPECT_GT(report.gainOverProductionPercent(), 0.5);
}

TEST(UskuDeathTest, EnvironmentServiceMismatchFatal)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    Usku tool(env);
    EXPECT_EXIT(tool.run(spec("feed1", "skylake18")),
                testing::ExitedWithCode(1), "targets");
}

TEST(SoftSkuGenerator, ValidationLogsToOds)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    SoftSkuGenerator generator;
    OdsStore ods;
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig softSku = production;
    softSku.thp = ThpMode::Always;
    ValidationResult result = generator.validate(
        env, softSku, production, 12 * 3600.0, ods, 120.0);
    EXPECT_EQ(result.samples, 360u);
    EXPECT_TRUE(ods.has("qps.softsku"));
    EXPECT_TRUE(ods.has("qps.reference"));
    EXPECT_TRUE(result.stable);
    EXPECT_GT(result.meanGainPercent, 0.5);
    // ODS agrees with the verdict.
    auto soft = ods.aggregate("qps.softsku", 0, 1e9);
    auto ref = ods.aggregate("qps.reference", 0, 1e9);
    EXPECT_GT(soft.mean, ref.mean);
}

double
metricValue(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const MetricRow &row : snapshot.rows) {
        if (row.name == name)
            return row.value;
    }
    ADD_FAILURE() << "no metric " << name;
    return -1.0;
}

TEST(UskuPricing, StageCountsOfAFixedSearchWebSweep)
{
    // The tune_web default: every knob, independent sweep, fixed
    // search, benign.  Frequencies price from the production config's
    // event pass, so 43 configurations need only 33 event passes.  The
    // counts do not depend on the pool size.
    for (unsigned jobs : {1u, 2u}) {
        SCOPED_TRACE(jobs);
        ProductionEnvironment env(webProfile(), skylake18(), 1,
                                  fastOptions());
        UskuOptions options;
        options.jobs = jobs;
        Usku tool(env, options);
        UskuReport report = tool.run(spec("web", "skylake18"));
        MetricsSnapshot metrics = tool.fullMetrics();
        EXPECT_EQ(report.configsEvaluated, 43u);
        EXPECT_EQ(metricValue(metrics, "sim.rollups"), 43.0);
        EXPECT_EQ(metricValue(metrics, "sim.event_passes"), 33.0);
    }
}

} // namespace
} // namespace softsku
