/** @file Tests for the production measurement environment. */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "services/services.hh"
#include "sim/production_env.hh"
#include "stats/running_stat.hh"

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

TEST(ProductionEnv, TruthIsCachedPerConfig)
{
    ProductionEnvironment env(feed1Profile(), skylake18(), 1,
                              fastOptions());
    KnobConfig a;
    double first = env.trueMips(a);
    EXPECT_EQ(env.configsSimulated(), 1u);
    EXPECT_DOUBLE_EQ(env.trueMips(a), first);
    EXPECT_EQ(env.configsSimulated(), 1u);

    KnobConfig b;
    b.thp = ThpMode::Never;
    env.trueMips(b);
    EXPECT_EQ(env.configsSimulated(), 2u);
}

TEST(ProductionEnv, LoadFactorIsDiurnalAndShared)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    RunningStat factors;
    for (double t = 0.0; t < 86400.0; t += 600.0)
        factors.add(env.loadFactor(t));
    EXPECT_NEAR(factors.mean(), 1.0, 0.01);
    EXPECT_GT(factors.max() - factors.min(), 0.02);
    // Pure function of time.
    EXPECT_DOUBLE_EQ(env.loadFactor(1234.5), env.loadFactor(1234.5));
}

TEST(ProductionEnv, PairedSamplesShareLoadFactor)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig a;
    KnobConfig b;
    b.thp = ThpMode::Never;
    double truthA = env.trueMips(a);
    double truthB = env.trueMips(b);

    // The ratio sample/truth differs between arms only by measurement
    // noise, not by load: correlation of the common-mode factor.
    RunningStat diffOfLogs;
    for (int i = 0; i < 400; ++i) {
        PairedSample s = env.samplePair(a, b, i * 30.0);
        double normA = s.mipsA / (truthA * s.loadFactor);
        double normB = s.mipsB / (truthB * s.loadFactor);
        diffOfLogs.add(normA - normB);
        EXPECT_NEAR(normA, 1.0, 0.1);
        EXPECT_NEAR(normB, 1.0, 0.1);
    }
    EXPECT_NEAR(diffOfLogs.mean(), 0.0, 0.005);
}

TEST(ProductionEnv, MeasurementNoiseMatchesSigma)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    env.noise().diurnalAmplitude = 0.0;
    env.noise().codePushSigma = 0.0;
    KnobConfig cfg;
    double truth = env.trueMips(cfg);
    RunningStat samples;
    for (int i = 0; i < 3000; ++i)
        samples.add(env.sampleMips(cfg, i * 1.0) / truth);
    EXPECT_NEAR(samples.mean(), 1.0, 0.005);
    EXPECT_NEAR(samples.stddev(), env.noise().measurementSigma, 0.003);
}

TEST(ProductionEnv, CodePushesPerturbEpochs)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    env.noise().diurnalAmplitude = 0.0;
    env.noise().measurementSigma = 1e-9;
    env.noise().codePushSigma = 0.01;
    env.noise().codePushIntervalSec = 3600.0;
    KnobConfig cfg;
    double epoch0 = env.sampleMips(cfg, 100.0);
    double epoch0Again = env.sampleMips(cfg, 200.0);
    double epoch5 = env.sampleMips(cfg, 5 * 3600.0 + 100.0);
    EXPECT_NEAR(epoch0, epoch0Again, epoch0 * 1e-6);
    EXPECT_NE(epoch0, epoch5);
    EXPECT_NEAR(epoch5, epoch0, epoch0 * 0.025);
}

TEST(ProductionEnv, ClonesWithSameStreamReplayIdentically)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig a;
    KnobConfig b;
    b.thp = ThpMode::Never;

    ProductionEnvironment first = env.clone(7);
    ProductionEnvironment second = env.clone(7);
    for (double t = 0.0; t < 600.0; t += 60.0) {
        PairedSample x = first.samplePair(a, b, t);
        PairedSample y = second.samplePair(a, b, t);
        EXPECT_DOUBLE_EQ(x.mipsA, y.mipsA);
        EXPECT_DOUBLE_EQ(x.mipsB, y.mipsB);
    }
}

TEST(ProductionEnv, ClonesWithDifferentStreamsDiverge)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig cfg;
    ProductionEnvironment s1 = env.clone(1);
    ProductionEnvironment s2 = env.clone(2);
    int same = 0;
    for (double t = 0.0; t < 600.0; t += 60.0)
        same += s1.samplePair(cfg, cfg, t).mipsA ==
                s2.samplePair(cfg, cfg, t).mipsA;
    EXPECT_LT(same, 2);
}

TEST(ProductionEnv, ClonesShareTheTruthCache)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig a;
    ProductionEnvironment slice = env.clone(3);
    double truth = slice.trueMips(a);
    // The clone's simulation is visible to the parent: no re-simulation.
    EXPECT_EQ(env.configsSimulated(), 1u);
    EXPECT_DOUBLE_EQ(env.trueMips(a), truth);
    EXPECT_EQ(env.configsSimulated(), 1u);

    KnobConfig b;
    b.thp = ThpMode::Never;
    env.trueMips(b);
    // ...and the parent's simulations are visible to later clones.
    ProductionEnvironment other = env.clone(4);
    other.trueMips(b);
    EXPECT_EQ(env.configsSimulated(), 2u);
}

/** Configurations of @p base that differ only in knobs that do not
 *  change the event stream. */
std::vector<KnobConfig>
nonEventVariants(const KnobConfig &base)
{
    std::vector<KnobConfig> out(6, base);
    out[1].coreFreqGHz = 1.8;
    out[2].uncoreFreqGHz = 1.5;
    out[3].mbaPercent = 70;
    out[4].tierPolicy = TierPolicy::Aggressive;
    out[5].farMemRatio = 0.40;
    return out;
}

TEST(ProductionEnv, NonEventKnobsShareOneEventPass)
{
    const PlatformSpec &platform = skylake18cxl();
    const WorkloadProfile &profile = feed1Profile();
    ProductionEnvironment env(profile, platform, 1, fastOptions());
    std::vector<KnobConfig> configs =
        nonEventVariants(stockConfig(platform, profile));
    for (const KnobConfig &config : configs) {
        EXPECT_EQ(env.counters(config),
                  simulateService(profile, platform, config, fastOptions()));
    }
    EXPECT_EQ(env.eventPasses(), 1u);
    EXPECT_EQ(env.configsSimulated(), configs.size());

    KnobConfig structural = configs[0];
    structural.thp = ThpMode::Never;
    env.trueMips(structural);
    EXPECT_EQ(env.eventPasses(), 2u);
}

TEST(ProductionEnv, ConcurrentPricingRunsEachStageOnce)
{
    // Sweep tasks price the same configurations from many threads at
    // once: every stage still runs once per key, and every thread sees
    // the one result.
    SimOptions tiny;
    tiny.warmupInstructions = 20'000;
    tiny.measureInstructions = 30'000;
    const PlatformSpec &platform = skylake18cxl();
    ProductionEnvironment env(feed1Profile(), platform, 1, tiny);
    std::vector<KnobConfig> configs =
        nonEventVariants(stockConfig(platform, feed1Profile()));
    KnobConfig structural = configs[0];
    structural.prefetch = PrefetcherPreset::AllOff;
    configs.push_back(structural);

    constexpr int kThreads = 4;
    std::vector<std::vector<double>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ProductionEnvironment slice = env.clone(t);
            for (size_t i = 0; i < configs.size(); ++i) {
                const KnobConfig &config =
                    configs[(i + static_cast<size_t>(t)) % configs.size()];
                seen[t].push_back(slice.trueMips(config));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(env.configsSimulated(), configs.size());
    EXPECT_EQ(env.eventPasses(), 2u);
    for (int t = 0; t < kThreads; ++t) {
        for (size_t i = 0; i < configs.size(); ++i) {
            EXPECT_EQ(seen[t][i],
                      env.trueMips(configs[(i + static_cast<size_t>(t)) %
                                           configs.size()]));
        }
    }
}

} // namespace
} // namespace softsku
