/** @file Integration tests for the trace-driven service simulator. */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "sim/btb.hh"
#include "services/services.hh"
#include "sim/service_sim.hh"
#include "sim/sim_core.hh"

namespace softsku {
namespace {

SimOptions
fastOptions()
{
    SimOptions opts;
    opts.warmupInstructions = 250'000;
    opts.measureInstructions = 350'000;
    return opts;
}

TEST(Btb, HitAfterInstallAndLru)
{
    Btb btb(16, 4);
    EXPECT_FALSE(btb.access(0x100));
    EXPECT_TRUE(btb.access(0x100));
    EXPECT_EQ(btb.hits(), 1u);
    EXPECT_EQ(btb.misses(), 1u);
    btb.flush();
    EXPECT_FALSE(btb.access(0x100));
}

TEST(ServiceSim, DeterministicUnderSeed)
{
    SimOptions opts = fastOptions();
    CounterSet a = simulateService(feed1Profile(), skylake18(),
                                   KnobConfig{}, opts);
    CounterSet b = simulateService(feed1Profile(), skylake18(),
                                   KnobConfig{}, opts);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1i.misses[0], b.l1i.misses[0]);
    EXPECT_EQ(a.llc.misses[1], b.llc.misses[1]);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.platformMips, b.platformMips);
    EXPECT_TRUE(a == b) << "a rerun must repeat every field bit for bit";
}

TEST(ServiceSim, DifferentSeedsYieldSimilarButNotIdentical)
{
    SimOptions a = fastOptions();
    SimOptions b = fastOptions();
    b.seed = 2;
    CounterSet ca = simulateService(webProfile(), skylake18(),
                                    KnobConfig{}, a);
    CounterSet cb = simulateService(webProfile(), skylake18(),
                                    KnobConfig{}, b);
    EXPECT_NE(ca.l1d.misses[1], cb.l1d.misses[1]);
    EXPECT_NEAR(ca.ipc, cb.ipc, ca.ipc * 0.12);
}

TEST(ServiceSim, CountersInternallyConsistent)
{
    CounterSet c = simulateService(ads1Profile(), skylake18(),
                                   KnobConfig{}, fastOptions());
    EXPECT_EQ(c.instructions, 350'000u);
    // Class counts sum to instructions.
    std::uint64_t classes = 0;
    for (std::uint64_t count : c.classCounts)
        classes += count;
    EXPECT_EQ(classes, c.instructions);
    // Misses never exceed accesses; hierarchy misses only shrink.
    for (const CacheStats *s : {&c.l1i, &c.l1d, &c.l2, &c.llc}) {
        EXPECT_LE(s->misses[0], s->accesses[0]);
        EXPECT_LE(s->misses[1], s->accesses[1]);
    }
    EXPECT_LE(c.l2.misses[0], c.l1i.misses[0]);
    EXPECT_LE(c.llc.misses[0], c.l2.misses[0]);
    EXPECT_LE(c.mispredicts, c.branches);
    // Top-down sums to ~1 and IPC is positive and sane.
    EXPECT_NEAR(c.topdown.total(), 1.0, 1e-6);
    EXPECT_GT(c.ipc, 0.05);
    EXPECT_LT(c.ipc, 4.0);
    EXPECT_GT(c.platformMips, 0.0);
}

TEST(ServiceSim, InstructionMixTracksProfile)
{
    CounterSet c = simulateService(feed1Profile(), skylake18(),
                                   KnobConfig{}, fastOptions());
    EXPECT_NEAR(c.classFraction(1), feed1Profile().mix.floating, 0.02);
    EXPECT_NEAR(c.classFraction(0), feed1Profile().mix.branch, 0.02);
}

TEST(ServiceSim, CoreFrequencyRaisesThroughputSublinearly)
{
    SimOptions opts = fastOptions();
    KnobConfig slow;
    slow.coreFreqGHz = 1.6;
    KnobConfig fast;
    fast.coreFreqGHz = 2.2;
    double mipsSlow = simulateService(webProfile(), skylake18(), slow,
                                      opts).platformMips;
    double mipsFast = simulateService(webProfile(), skylake18(), fast,
                                      opts).platformMips;
    EXPECT_GT(mipsFast, mipsSlow);
    // Sub-linear: memory stalls don't scale with core frequency.
    EXPECT_LT(mipsFast / mipsSlow, 2.2 / 1.6);
}

TEST(ServiceSim, CatWaysReduceCapacity)
{
    SimOptions opts = fastOptions();
    SimOptions catOpts = opts;
    catOpts.catWays = 2;
    CounterSet full = simulateService(webProfile(), skylake18(),
                                      KnobConfig{}, opts);
    CounterSet small = simulateService(webProfile(), skylake18(),
                                       KnobConfig{}, catOpts);
    EXPECT_GT(small.llc.totalMisses(), full.llc.totalMisses());
}

TEST(ServiceSim, ThpNeverRaisesTlbMisses)
{
    SimOptions opts = fastOptions();
    KnobConfig never;
    never.thp = ThpMode::Never;
    never.shpCount = 0;
    KnobConfig always;
    always.thp = ThpMode::Always;
    always.shpCount = 0;
    CounterSet cNever = simulateService(webProfile(), skylake18(), never,
                                        opts);
    CounterSet cAlways = simulateService(webProfile(), skylake18(),
                                         always, opts);
    EXPECT_GT(cNever.dtlbWalks, cAlways.dtlbWalks);
    EXPECT_GE(cNever.itlbWalks, cAlways.itlbWalks);
}

TEST(ServiceSim, PrefetchersReduceDemandMissesButAddTraffic)
{
    SimOptions opts = fastOptions();
    KnobConfig off;
    off.prefetch = PrefetcherPreset::AllOff;
    KnobConfig on;
    on.prefetch = PrefetcherPreset::AllOn;
    CounterSet cOff = simulateService(feed1Profile(), skylake18(), off,
                                      opts);
    CounterSet cOn = simulateService(feed1Profile(), skylake18(), on,
                                     opts);
    // Demand misses at L1D drop for the streaming-heavy Feed1...
    EXPECT_LT(cOn.l1d.misses[1], cOff.l1d.misses[1]);
    // ...while prefetch DRAM traffic appears.
    EXPECT_EQ(cOff.dramPrefetchFills, 0u);
    EXPECT_GT(cOn.dramPrefetchFills, 0u);
}

TEST(ServiceSim, ContextSwitchesHappenAtProfileRate)
{
    CounterSet c = simulateService(cache1Profile(), skylake20(),
                                   KnobConfig{}, fastOptions());
    EXPECT_GT(c.contextSwitches, 5u);
    EXPECT_NEAR(c.cswPenaltyFraction,
                cache1Profile().contextSwitch.penaltyFractionMid(), 1e-9);
}

TEST(ServiceSim, LineRingOverwritesOldestAfterWrap)
{
    simcore::LineRing ring(3);
    EXPECT_TRUE(ring.empty());
    for (std::uint64_t line = 1; line <= 7; ++line)
        ring.push(line);
    // Capacity 3 after 7 pushes: cursor wrapped (4→slot0, 5→slot1,
    // 6→slot2, 7→slot0 again), so the live set is {5, 6, 7}.
    std::set<std::uint64_t> seen;
    Rng rng(42);
    for (int i = 0; i < 200; ++i)
        seen.insert(ring.sample(rng));
    EXPECT_EQ(seen, (std::set<std::uint64_t>{5, 6, 7}));
}

/**
 * Property sweep: every service simulates sanely on every platform.
 * The platform is a std::string, not a const char *, so each case's
 * printed parameter (and the test name built from it) is the same in
 * every build instead of carrying a pointer address.
 */
class FleetSweep
    : public testing::TestWithParam<std::tuple<int, std::string>>
{
};

TEST_P(FleetSweep, SimulationIsSane)
{
    auto [serviceIdx, platformName] = GetParam();
    const WorkloadProfile &service = *allMicroservices()[serviceIdx];
    const PlatformSpec &platform = platformByName(platformName);
    KnobConfig knobs = productionConfig(platform, service);
    SimOptions opts;
    opts.warmupInstructions = 120'000;
    opts.measureInstructions = 150'000;
    CounterSet c = simulateService(service, platform, knobs, opts);
    EXPECT_GT(c.ipc, 0.02);
    EXPECT_LT(c.ipc, 4.0);
    EXPECT_GT(c.memBandwidthGBs, 0.0);
    EXPECT_LE(c.memBandwidthGBs, platform.peakMemBandwidthGBs);
    EXPECT_GE(c.memLatencyNs, 60.0);
    EXPECT_NEAR(c.topdown.total(), 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllServicesAllPlatforms, FleetSweep,
    testing::Combine(testing::Range(0, 7),
                     testing::Values(std::string("skylake18"),
                                     std::string("skylake20"),
                                     std::string("broadwell16"))));

} // namespace
} // namespace softsku
