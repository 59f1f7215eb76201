/** @file Tests for the fleet deployment / staged rollout model. */

#include <gtest/gtest.h>

#include "core/knob_registry.hh"
#include "services/services.hh"
#include "sim/fleet.hh"

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

TEST(Fleet, RebootRules)
{
    KnobConfig a = productionConfig(skylake18(), webProfile());
    KnobConfig b = a;
    b.thp = ThpMode::Always;
    EXPECT_FALSE(reconfigurationNeedsReboot(a, b));   // runtime knob
    b.shpCount = 300;
    EXPECT_TRUE(reconfigurationNeedsReboot(a, b));    // boot parameter
    KnobConfig c = a;
    c.activeCores = 8;
    EXPECT_TRUE(reconfigurationNeedsReboot(a, c));    // isolcpus
}

TEST(Fleet, RebootFollowsTheRegistry)
{
    // Every registered knob, every value: a change needs a reboot
    // exactly when the knob's descriptor says it is boot-time only.
    const PlatformSpec &platform = skylake18cxl();
    const KnobConfig from = productionConfig(platform, webProfile());
    for (const KnobDescriptor &d : knobRegistry()) {
        SCOPED_TRACE(d.key);
        int changes = 0;
        for (const KnobValue &value : d.domain(platform, webProfile())) {
            KnobConfig to = from;
            d.apply(value, to);
            if (to == from)
                continue;
            ++changes;
            EXPECT_EQ(reconfigurationNeedsReboot(from, to),
                      d.requiresReboot)
                << value.label;
        }
        EXPECT_GT(changes, 0);
    }
}

TEST(Fleet, ReconfigureChargesDowntime)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig production = productionConfig(skylake18(), webProfile());
    FleetSlice fleet(env, 4, production);
    EXPECT_EQ(fleet.onlineServers(0.0), 4);

    KnobConfig shpChange = production;
    shpChange.shpCount = 300;
    EXPECT_TRUE(fleet.reconfigure(0, shpChange, 100.0, 300.0));
    EXPECT_EQ(fleet.onlineServers(150.0), 3);   // rebooting
    EXPECT_EQ(fleet.onlineServers(500.0), 4);   // back

    KnobConfig thpChange = production;
    thpChange.thp = ThpMode::Always;
    EXPECT_FALSE(fleet.reconfigure(1, thpChange, 100.0, 300.0));
    EXPECT_EQ(fleet.servers()[1].config.thp, ThpMode::Always);
}

TEST(Fleet, FleetMipsScalesWithServers)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    env.noise().diurnalAmplitude = 0.0;
    env.noise().measurementSigma = 1e-6;
    KnobConfig production = productionConfig(skylake18(), webProfile());
    FleetSlice small(env, 2, production);
    FleetSlice large(env, 8, production);
    EXPECT_NEAR(large.fleetMips(0.0) / small.fleetMips(0.0), 4.0, 0.05);
}

TEST(Fleet, RolloutCompletesAndLogsTelemetry)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig softSku = production;
    softSku.thp = ThpMode::Always;   // a genuine winner

    FleetSlice fleet(env, 8, production);
    OdsStore ods;
    RolloutPolicy policy;
    policy.canarySoakSec = 1800.0;
    policy.waveIntervalSec = 600.0;

    RolloutResult result = fleet.rollout(softSku, policy, ods);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.serversConverted, 8);
    EXPECT_GT(result.fleetGainPercent, 0.5);
    for (const FleetServer &server : fleet.servers())
        EXPECT_EQ(server.config.thp, ThpMode::Always);
    EXPECT_TRUE(ods.has("fleet.web.mips"));
    EXPECT_TRUE(ods.has("fleet.web.online"));
    EXPECT_GT(ods.aggregate("fleet.web.mips", 0, 1e9).count, 5u);
}

TEST(Fleet, RolloutAbortsOnCanaryRegression)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig bad = production;
    bad.coreFreqGHz = 1.6;   // ~10% regression

    FleetSlice fleet(env, 8, production);
    OdsStore ods;
    RolloutPolicy policy;
    policy.canarySoakSec = 600.0;

    RolloutResult result = fleet.rollout(bad, policy, ods);
    EXPECT_TRUE(result.aborted);
    EXPECT_FALSE(result.completed);
    EXPECT_LT(result.canaryGainPercent, -1.0);
    EXPECT_GE(result.canarySamples, 2u);
    // Every server is back on the production configuration.
    for (const FleetServer &server : fleet.servers())
        EXPECT_EQ(server.config, production);
}

TEST(Fleet, CanaryIsJudgedOnTelemetryNotGroundTruth)
{
    // The target config is a genuine winner (truth says +3%), but the
    // canary *host* silently lost 15% of its performance.  A judgment
    // that consulted the truth cache would proceed; the telemetry-based
    // one must abort — the samples are all the operator really has.
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig winner = production;
    winner.thp = ThpMode::Always;
    ASSERT_GT(env.trueMips(winner), env.trueMips(production));

    FleetSlice fleet(env, 8, production);
    fleet.degradeServer(0, 0.85);   // canary hardware fault
    OdsStore ods;
    RolloutPolicy policy;
    policy.canarySoakSec = 600.0;

    RolloutResult result = fleet.rollout(winner, policy, ods);
    EXPECT_TRUE(result.aborted);
    EXPECT_FALSE(result.completed);
    EXPECT_LT(result.canaryGainPercent, -1.0);
    for (const FleetServer &server : fleet.servers())
        EXPECT_EQ(server.config, production);
}

TEST(Fleet, WaveHealthCheckRollsBackConvertedWaves)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig winner = production;
    winner.thp = ThpMode::Always;

    FleetSlice fleet(env, 8, production);
    OdsStore ods;
    RolloutPolicy policy;
    policy.canarySoakSec = 600.0;
    policy.waveIntervalSec = 600.0;
    // Timeline: baseline [0,1800), canary converts at 1800, soak to
    // 2400, wave 1 converts at 2400.  Mid-wave, three servers tank.
    fleet.scheduleDegradation(4, 2500.0, 0.75);
    fleet.scheduleDegradation(5, 2500.0, 0.75);
    fleet.scheduleDegradation(6, 2500.0, 0.75);

    RolloutResult result = fleet.rollout(winner, policy, ods);
    EXPECT_TRUE(result.aborted);
    EXPECT_TRUE(result.rolledBack);
    EXPECT_FALSE(result.completed);
    EXPECT_GE(result.wavesRolledBack, 1);
    // Every converted server — canary included — is back on the
    // production configuration.
    for (const FleetServer &server : fleet.servers())
        EXPECT_EQ(server.config, production);
}

TEST(Fleet, ResumeAfterWaveRollbackFinishesTheFleet)
{
    // Same degradation storm as WaveHealthCheckRollsBackConvertedWaves,
    // but the operator allows one resume.  Attempt 1 rolls back when
    // three servers tank mid-wave; the resume re-baselines on the
    // now-degraded fleet (the regression is the new normal), re-runs
    // the canary, and attempt 2 converts everyone.
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig winner = production;
    winner.thp = ThpMode::Always;

    FleetSlice fleet(env, 8, production);
    OdsStore ods;
    RolloutPolicy policy;
    policy.canarySoakSec = 600.0;
    policy.waveIntervalSec = 600.0;
    policy.resumeAttempts = 1;
    fleet.scheduleDegradation(4, 2500.0, 0.75);
    fleet.scheduleDegradation(5, 2500.0, 0.75);
    fleet.scheduleDegradation(6, 2500.0, 0.75);

    RolloutResult result = fleet.rollout(winner, policy, ods);
    EXPECT_EQ(result.resumes, 1);
    EXPECT_GE(result.wavesRolledBack, 1);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.serversConverted, 8);
    for (const FleetServer &server : fleet.servers())
        EXPECT_EQ(server.config, winner);
}

TEST(Fleet, ResumeSurvivesModerateFaultsDeterministically)
{
    // The same storm with the moderate fault plan armed on top: the
    // resumed attempt must cope with crashes and exclusions too, and
    // the whole ordeal replays bit-for-bit from the seeds.
    auto run = [] {
        ProductionEnvironment env(webProfile(), skylake18(), 1,
                                  fastOptions());
        env.setFaults(FaultPlan::fromSpec("moderate"), 21);
        KnobConfig production =
            productionConfig(skylake18(), webProfile());
        KnobConfig winner = production;
        winner.thp = ThpMode::Always;

        FleetSlice fleet(env, 16, production);
        OdsStore ods;
        RolloutPolicy policy;
        policy.canarySoakSec = 1800.0;
        policy.waveIntervalSec = 600.0;
        policy.resumeAttempts = 2;
        fleet.scheduleDegradation(10, 4000.0, 0.70);
        fleet.scheduleDegradation(11, 4000.0, 0.70);
        fleet.scheduleDegradation(12, 4000.0, 0.70);
        fleet.scheduleDegradation(13, 4000.0, 0.70);
        return fleet.rollout(winner, policy, ods);
    };

    RolloutResult first = run();
    EXPECT_GE(first.resumes, 1);
    EXPECT_GE(first.wavesRolledBack, 1);
    EXPECT_TRUE(first.completed);
    EXPECT_FALSE(first.aborted);

    RolloutResult second = run();
    EXPECT_EQ(second.resumes, first.resumes);
    EXPECT_EQ(second.wavesRolledBack, first.wavesRolledBack);
    EXPECT_EQ(second.serversConverted, first.serversConverted);
    EXPECT_DOUBLE_EQ(second.finishedAtSec, first.finishedAtSec);
    EXPECT_DOUBLE_EQ(second.fleetGainPercent, first.fleetGainPercent);
}

TEST(Fleet, RolloutWavePacingConvertsInWaveSizedSteps)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    env.noise().measurementSigma = 1e-6;
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig winner = production;
    winner.thp = ThpMode::Always;

    FleetSlice fleet(env, 8, production);
    OdsStore ods;
    RolloutPolicy policy;
    policy.baselineSoakSec = 600.0;
    policy.canarySoakSec = 600.0;
    policy.waveIntervalSec = 600.0;
    policy.waveFraction = 0.25;   // 2 servers per wave

    RolloutResult result = fleet.rollout(winner, policy, ods);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.serversConverted, 8);
    // 1 canary + ceil(7/2) = 4 waves: baseline 600 + soak 600 +
    // 4 × 600 of wave windows.
    EXPECT_DOUBLE_EQ(result.finishedAtSec, 600.0 + 600.0 + 4 * 600.0);
    EXPECT_GT(result.fleetGainPercent, 0.5);
}

TEST(Fleet, StuckRebootExcludesServerAndAbortsUnjudgeableCanary)
{
    // Every reboot hangs for an hour, far past the operator's 30 min
    // timeout.  The canary conversion needs a reboot (SHP change), so
    // the canary never comes back: it must be pulled from rotation and
    // the rollout aborted for lack of canary telemetry.
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    env.setFaults(FaultPlan::fromSpec("stuck=1.0"), 7);
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig rebootful = production;
    rebootful.shpCount = 300;

    FleetSlice fleet(env, 8, production);
    OdsStore ods;
    RolloutPolicy policy;
    policy.canarySoakSec = 1200.0;
    policy.rebootTimeoutSec = 900.0;

    RolloutResult result = fleet.rollout(rebootful, policy, ods);
    EXPECT_TRUE(result.aborted);
    EXPECT_EQ(result.canarySamples, 0u);
    EXPECT_GE(result.stuckReboots, 1);
    EXPECT_GE(result.serversExcluded, 1);
    EXPECT_TRUE(fleet.servers()[0].excluded);
}

TEST(Fleet, HostileRolloutSurvivesModerateFaults)
{
    // Under the moderate plan a genuine winner still rolls out: the
    // health machinery absorbs crashes and replacement drift without
    // spurious aborts, and telemetry records what happened.
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    env.setFaults(FaultPlan::fromSpec("moderate"), 21);
    KnobConfig production = productionConfig(skylake18(), webProfile());
    KnobConfig winner = production;
    winner.thp = ThpMode::Always;

    FleetSlice fleet(env, 16, production);
    OdsStore ods;
    RolloutPolicy policy;
    policy.canarySoakSec = 1800.0;
    policy.waveIntervalSec = 600.0;

    RolloutResult result = fleet.rollout(winner, policy, ods);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.rolledBack);
    EXPECT_GT(result.fleetGainPercent, 0.5);
    // Converted count excludes any servers the faults knocked out.
    EXPECT_GE(result.serversConverted,
              16 - result.serversExcluded);
}

TEST(Fleet, DegradeServerShowsUpInFleetTelemetry)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    env.noise().diurnalAmplitude = 0.0;
    env.noise().measurementSigma = 1e-6;
    KnobConfig production = productionConfig(skylake18(), webProfile());
    FleetSlice fleet(env, 4, production);
    double healthy = fleet.fleetMips(0.0);
    fleet.degradeServer(2, 0.5);
    double degraded = fleet.fleetMips(0.0);
    // One of four servers at half speed → 12.5% fleet loss.
    EXPECT_NEAR(degraded / healthy, 0.875, 0.01);
    // Ground truth is deliberately blind to hardware drift.
    EXPECT_DOUBLE_EQ(env.trueMips(production),
                     env.trueMips(fleet.servers()[2].config));
}

} // namespace
} // namespace softsku
