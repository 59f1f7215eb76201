/**
 * @file
 * Statistical harness for the adaptive best-arm search (--search=race
 * and --search=halving).  Three properties anchor the feature:
 *
 *  1. Winner agreement: racing composes the SAME soft SKU as the
 *     fixed protocol on every MIPS-tunable service x platform pair,
 *     while spending a fraction of the paper's fixed per-comparison
 *     sample budget.  (cache1/cache2 are excluded by construction:
 *     their service profiles set mipsValidMetric = false — Cache runs
 *     exception handlers under QoS violations, so MIPS is not a valid
 *     throughput proxy and buildTestPlan() refuses to tune them.)
 *  2. Determinism: race/halving reports are byte-identical across
 *     worker thread counts, benign and under fault injection.
 *  3. Persistence: a warm rerun of a raced sweep replays every chunk
 *     (and the validation phase) from the on-disk cache and reports
 *     byte-identically to the cold measured run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

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
raceSpec(const std::string &service, const std::string &platform,
         SearchMode search, std::vector<KnobId> knobs = {})
{
    InputSpec spec;
    spec.microservice = service;
    spec.platform = platform;
    spec.search = search;
    if (!knobs.empty())
        spec.knobs = std::move(knobs);
    spec.validationDurationSec = 3600.0;
    spec.normalize();
    return spec;
}

/** Full pipeline in a fresh environment; returns the serialized report. */
std::string
runSerialized(const InputSpec &spec, unsigned jobs,
              const FaultPlan &plan = FaultPlan{})
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    UskuOptions options;
    options.jobs = jobs;
    if (plan.any()) {
        env.setFaults(plan, /*faultSeed=*/9);
        options.robustness = RobustnessPolicy::hostile();
    }
    Usku tool(env, options);
    return tool.run(spec).toJson().dump(2);
}

/** Live samples the race paid across all non-baseline sweep arms. */
std::uint64_t
samplesPaid(const UskuReport &report)
{
    std::uint64_t paid = 0;
    for (const KnobSweep &sweep : report.map.sweeps)
        for (const KnobOutcome &outcome : sweep.outcomes)
            if (!outcome.isBaseline)
                paid += outcome.samples;
    return paid;
}

std::uint64_t
armCount(const UskuReport &report)
{
    std::uint64_t arms = 0;
    for (const KnobSweep &sweep : report.map.sweeps)
        for (const KnobOutcome &outcome : sweep.outcomes)
            if (!outcome.isBaseline)
                arms += 1;
    return arms;
}

// The acceptance matrix: every service whose profile admits MIPS as a
// throughput proxy, on both platforms.  One shared environment per
// pair so fixed and race draw from identical truth streams.
TEST(UskuRace, WinnerMatchesFixedOnEveryTunableServicePlatform)
{
    const char *services[] = {"web", "feed1", "feed2", "ads1", "ads2"};
    const char *platforms[] = {"skylake18", "broadwell16"};

    std::uint64_t totalPaid = 0;
    std::uint64_t totalBudget = 0;
    std::uint64_t totalEliminated = 0;

    for (const char *service : services) {
        for (const char *platform : platforms) {
            ProductionEnvironment env(serviceByName(service),
                                      platformByName(platform), 1,
                                      fastOptions());
            UskuOptions options;
            options.jobs = 0;  // hardware concurrency
            Usku tool(env, options);

            InputSpec fixed =
                raceSpec(service, platform, SearchMode::Fixed);
            UskuReport fixedReport = tool.run(fixed);

            InputSpec race =
                raceSpec(service, platform, SearchMode::Race);
            UskuReport raceReport = tool.run(race);

            // Racing may stop arms early, never change the winner.
            EXPECT_EQ(raceReport.softSku, fixedReport.softSku)
                << service << "/" << platform;

            totalPaid += samplesPaid(raceReport);
            totalBudget +=
                armCount(raceReport) * race.maxSamplesPerTest;
            for (const KnobSweep &sweep : raceReport.map.sweeps)
                for (const KnobOutcome &outcome : sweep.outcomes)
                    totalEliminated +=
                        outcome.eliminated ? 1 : 0;
        }
    }

    // The paper's protocol budgets every paired comparison at the full
    // fixed cap (maxSamplesPerTest).  Racing must compose each SKU for
    // at most a fifth of that — in practice it is far below, because
    // losers fall at the first elimination round.
    ASSERT_GT(totalPaid, 0u);
    EXPECT_GE(totalBudget, 5 * totalPaid)
        << "race paid " << totalPaid << " of " << totalBudget;
    EXPECT_GT(totalEliminated, 0u);
}

TEST(UskuRace, RaceReportIdenticalAcrossThreadCounts)
{
    InputSpec spec = raceSpec("web", "skylake18", SearchMode::Race,
                              {KnobId::Thp, KnobId::Shp});
    std::string serial = runSerialized(spec, 1);
    EXPECT_EQ(runSerialized(spec, 2), serial);
    EXPECT_EQ(runSerialized(spec, 8), serial);
}

TEST(UskuRace, HostileRaceReportIdenticalAcrossThreadCounts)
{
    InputSpec spec = raceSpec("web", "skylake18", SearchMode::Race,
                              {KnobId::Thp, KnobId::Shp});
    FaultPlan plan = FaultPlan::fromSpec("moderate");
    std::string serial = runSerialized(spec, 1, plan);
    EXPECT_EQ(runSerialized(spec, 2, plan), serial);
    EXPECT_EQ(runSerialized(spec, 8, plan), serial);
}

TEST(UskuRace, HalvingReportIdenticalAcrossThreadCounts)
{
    InputSpec spec = raceSpec("web", "skylake18", SearchMode::Halving,
                              {KnobId::Thp, KnobId::Shp});
    std::string serial = runSerialized(spec, 1);
    EXPECT_EQ(runSerialized(spec, 2), serial);
    EXPECT_EQ(runSerialized(spec, 8), serial);
    // Under faults too: withdrawals and dead windows must not make the
    // halving schedule depend on the thread count.
    FaultPlan plan = FaultPlan::fromSpec("moderate");
    std::string hostile = runSerialized(spec, 1, plan);
    EXPECT_EQ(runSerialized(spec, 2, plan), hostile);
    EXPECT_EQ(runSerialized(spec, 8, plan), hostile);
}

TEST(UskuRace, RaceRecordsPullAndEarlyStopCounters)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    UskuOptions options;
    options.jobs = 2;
    Usku tool(env, options);
    UskuReport report =
        tool.run(raceSpec("web", "skylake18", SearchMode::Race));
    std::string metrics = report.metrics.toJson().dump(2);
    EXPECT_NE(metrics.find("sweep.arm_pulls"), std::string::npos);
    EXPECT_NE(metrics.find("sweep.early_stops"), std::string::npos);
    // Early-stopped arms are flagged and report their saved budget.
    bool sawSaved = false;
    for (const KnobSweep &sweep : report.map.sweeps)
        for (const KnobOutcome &outcome : sweep.outcomes)
            sawSaved = sawSaved || outcome.samplesSaved > 0;
    EXPECT_TRUE(sawSaved);
}

TEST(UskuRace, WarmRerunFromPersistentCacheIsByteIdentical)
{
    namespace fs = std::filesystem;
    fs::path cacheDir =
        fs::path(::testing::TempDir()) / "softsku-race-cache";
    fs::remove_all(cacheDir);

    InputSpec spec = raceSpec("web", "skylake18", SearchMode::Race,
                              {KnobId::Thp, KnobId::Shp});

    auto runCached = [&](UskuReport &out) {
        ProductionEnvironment env(webProfile(), skylake18(), 1,
                                  fastOptions());
        UskuOptions options;
        options.jobs = 2;
        options.cacheDir = cacheDir.string();
        Usku tool(env, options);
        out = tool.run(spec);
    };

    UskuReport cold;
    runCached(cold);
    EXPECT_EQ(cold.cacheHits, 0u);
    ASSERT_GT(cold.abComparisons, 0u);

    // The warm tool replays every race chunk — and the validation
    // phase — from disk: zero live measurement, identical bytes.  The
    // race cache's unit is the chunk, so hits count chunks and exceed
    // the comparison count.
    UskuReport warm;
    runCached(warm);
    EXPECT_GE(warm.cacheHits, warm.abComparisons);
    EXPECT_GT(warm.abComparisons, 0u);
    EXPECT_EQ(warm.toJson().dump(2), cold.toJson().dump(2));

    fs::remove_all(cacheDir);
}

} // namespace
} // namespace softsku
