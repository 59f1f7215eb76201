/**
 * @file
 * Statistical correctness harness for the best-arm identification
 * engines (core/bai.hh).
 *
 * The load-bearing tests are the seeded Monte-Carlo runs: synthetic
 * arms with *known* true gains run through the loop the sweep runs —
 * pull every pending() arm, update(), eliminateRound(), until
 * decided() — so they measure the exact pull and elimination rules the
 * sweep uses.  The empirical probability of eliminating the true best
 * arm must stay at or below the configured delta across seeds 1-50.
 * No amount of unit-testing the interval arithmetic substitutes for
 * measuring the error rate of the composed rule.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/bai.hh"
#include "stats/rng.hh"
#include "stats/running_stat.hh"

namespace softsku {
namespace {

/** One synthetic contest: Gaussian arms with known true gains. */
struct SyntheticRace
{
    std::vector<double> trueGains;
    double sigma = 0.017;  // per-sample noise of the real paired ratio

    /** Run @p engine to a decision with 100-sample chunks, the sweep's
     *  loop; returns the index best() selected. */
    std::size_t run(BaiArmSet &engine, std::uint64_t seed) const
    {
        Rng rng(seed);
        std::vector<Rng> streams;
        for (std::size_t i = 0; i < trueGains.size(); ++i)
            streams.push_back(rng.fork());
        while (!engine.decided()) {
            for (std::size_t i : engine.pending()) {
                RunningStat cumulative = engine.arm(i).gains;
                for (std::uint64_t s = 0; s < 100; ++s)
                    cumulative.add(
                        streams[i].gaussian(trueGains[i], sigma));
                engine.update(i, cumulative);
            }
            engine.eliminateRound();
        }
        return engine.best();
    }
};

BaiOptions
mcOptions()
{
    BaiOptions options;
    options.delta = 0.05;
    options.chunkSamples = 100;
    options.minSamplesPerArm = 2;
    options.maxSamplesPerArm = 30000;
    // Default futility (-inf): the pure (epsilon=0, delta) guarantee.
    return options;
}

TEST(Bai, MonteCarloErrorRateStaysBelowDelta)
{
    // Gaps chosen at the scale the real sweep resolves: the best arm
    // leads the runner-up by 0.4% against 1.7% per-sample noise.
    SyntheticRace synth;
    synth.trueGains = {0.010, 0.006, 0.004, 0.0, -0.005};

    int errors = 0;
    int trials = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        BaiRace race(synth.trueGains.size(), mcOptions());
        std::size_t winner = synth.run(race, seed);
        ++trials;
        if (winner != 0)
            ++errors;
    }
    double errorRate = static_cast<double>(errors) / trials;
    EXPECT_LE(errorRate, mcOptions().delta)
        << errors << " wrong winners in " << trials << " seeded races";
}

TEST(Bai, MonteCarloEliminatesClearlyWorseArmsEarly)
{
    // A -10% arm must die in the first rounds, not at the budget cap.
    SyntheticRace synth;
    synth.trueGains = {0.02, -0.10, -0.08};

    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        BaiRace race(synth.trueGains.size(), mcOptions());
        std::size_t winner = synth.run(race, seed);
        EXPECT_EQ(winner, 0u) << "seed " << seed;
        EXPECT_LE(race.arm(1).gains.count(), 1000u)
            << "seed " << seed
            << ": a 12%-behind arm survived past 10 chunks";
        EXPECT_GE(race.earlyStops(), 2u) << "seed " << seed;
    }
}

TEST(Bai, MonteCarloFutilityFloorRetiresSubMaterialArms)
{
    // With the composer's material threshold as the floor, arms whose
    // true gain sits below it stop being paid for even though they
    // never separate from each other.  Noise is scaled so the floor
    // binds within a few chunks; separating these arms from *each
    // other* (a 0.01% gap) would still take >9k samples apiece.
    SyntheticRace synth;
    synth.trueGains = {0.0001, 0.0002, -0.0001};
    synth.sigma = 0.002;
    BaiOptions options = mcOptions();
    options.futilityGain = 0.0005;

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        BaiRace race(synth.trueGains.size(), options);
        synth.run(race, seed);
        std::uint64_t totalSamples = 0;
        for (std::size_t i = 0; i < race.armCount(); ++i)
            totalSamples += race.arm(i).gains.count();
        // Without the floor these statistically-tied arms would race
        // to 3 x 30000; the floor must settle the contest well under
        // a tenth of that.
        EXPECT_LT(totalSamples, 9000u) << "seed " << seed;
    }
}

TEST(Bai, MonteCarloHalvingFindsBestCombo)
{
    SyntheticRace synth;
    synth.trueGains = {-0.02, 0.005, 0.03, -0.01, 0.0,
                       0.01,  0.02,  -0.03, 0.015, -0.005};

    int errors = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        BaiHalving halving(synth.trueGains.size(), mcOptions());
        if (synth.run(halving, seed) != 2)
            ++errors;
    }
    // Halving has no per-comparison delta guarantee (it drops by rank),
    // but at these gaps it must be right nearly always.
    EXPECT_LE(errors, 5) << errors << " wrong winners in 50 races";
}

// ---------------------------------------------------------------------
// Deterministic engine mechanics.

RunningStat
statOf(std::initializer_list<double> values)
{
    RunningStat stat;
    for (double v : values)
        stat.add(v);
    return stat;
}

TEST(Bai, SearchModeRoundTrips)
{
    EXPECT_EQ(searchModeFromString("fixed"), SearchMode::Fixed);
    EXPECT_EQ(searchModeFromString("race"), SearchMode::Race);
    EXPECT_EQ(searchModeFromString("halving"), SearchMode::Halving);
    EXPECT_EQ(searchModeName(SearchMode::Fixed), "fixed");
    EXPECT_EQ(searchModeName(SearchMode::Race), "race");
    EXPECT_EQ(searchModeName(SearchMode::Halving), "halving");
}

TEST(Bai, UpdateReplacesCumulativeStateAndCountsPulls)
{
    BaiOptions options = mcOptions();
    BaiRace race(2, options);
    race.update(0, statOf({0.1, 0.2}));
    race.update(0, statOf({0.1, 0.2, 0.3, 0.4}));
    EXPECT_EQ(race.arm(0).chunksPulled, 2u);
    EXPECT_EQ(race.arm(0).gains.count(), 4u);
    EXPECT_DOUBLE_EQ(race.arm(0).gains.mean(), 0.25);
}

TEST(Bai, ParkedArmIsExemptFromEliminationButStillWins)
{
    BaiOptions options = mcOptions();
    BaiRace race(2, options);
    // Arm 0 is far ahead; arm 1 parked with a weak verdict.  A parked
    // arm must never be struck, and still counts for best().
    RunningStat ahead;
    RunningStat behind;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        ahead.add(rng.gaussian(0.05, 0.001));
        behind.add(rng.gaussian(-0.05, 0.001));
    }
    race.update(0, ahead);
    race.update(1, behind);
    race.park(1);
    race.eliminateRound();
    EXPECT_FALSE(race.arm(1).eliminated);
    EXPECT_EQ(race.best(), 0u);
    // Symmetric check: parked arms can *be* the incumbent.
    BaiRace race2(2, options);
    race2.update(0, behind);
    race2.update(1, ahead);
    race2.park(1);
    race2.eliminateRound();
    EXPECT_TRUE(race2.arm(0).eliminated);
    EXPECT_EQ(race2.best(), 1u);
}

TEST(Bai, RaiseFloorRatchetsMonotonically)
{
    BaiOptions options = mcOptions();
    options.futilityGain = 0.0005;
    BaiRace race(2, options);
    // Two statistically indistinguishable near-zero arms: neither the
    // floor nor the beaten rule binds, so round one strikes nothing.
    RunningStat a;
    RunningStat b;
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        a.add(rng.gaussian(0.0012, 0.01));
        b.add(rng.gaussian(0.0010, 0.01));
    }
    race.update(0, a);
    race.update(1, b);
    race.eliminateRound();
    EXPECT_FALSE(race.arm(0).eliminated);
    EXPECT_FALSE(race.arm(1).eliminated);
    // A settled +1.9% verdict elsewhere ratchets the floor above both
    // arms' reach; lowering it afterwards must be impossible — the
    // weaker raiseFloor is a no-op and the round still strikes.
    race.raiseFloor(0.019);
    race.raiseFloor(0.0001);
    race.eliminateRound();
    EXPECT_TRUE(race.arm(1).eliminated);
}

TEST(Bai, WithdrawnArmsNeverWin)
{
    BaiOptions options = mcOptions();
    BaiRace race(2, options);
    race.update(0, statOf({0.5, 0.6, 0.7}));
    race.withdraw(0);
    // A lone contender still pulls toward its verdict.
    EXPECT_EQ(race.pending(), std::vector<std::size_t>{1});
    EXPECT_EQ(race.best(), 1u);
    race.withdraw(1);
    EXPECT_EQ(race.best(), race.armCount());
}

TEST(Bai, RadiusIsInfiniteBelowTwoSamples)
{
    BaiRace race(3, mcOptions());
    EXPECT_TRUE(std::isinf(race.radius(0)));
    race.update(0, statOf({0.1}));
    EXPECT_TRUE(std::isinf(race.radius(0)));
    race.update(0, statOf({0.1, 0.2}));
    EXPECT_TRUE(std::isfinite(race.radius(0)));
}

TEST(Bai, DecidedAtBudgetExhaustion)
{
    BaiOptions options = mcOptions();
    options.maxSamplesPerArm = 200;  // two chunks
    BaiRace race(2, options);
    Rng rng(3);
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i : race.pending()) {
            RunningStat cumulative = race.arm(i).gains;
            for (int s = 0; s < 100; ++s)
                cumulative.add(rng.gaussian(0.0, 0.01));
            race.update(i, cumulative);
        }
        race.eliminateRound();
    }
    EXPECT_TRUE(race.decided());
    EXPECT_TRUE(race.pending().empty());
    // Statistically tied arms that ran to the cap are not early stops.
    EXPECT_EQ(race.earlyStops(), 0u);
}

TEST(Bai, HalvingAllowanceDoublesAndClamps)
{
    BaiOptions options = mcOptions();
    options.maxSamplesPerArm = 400;  // 4 chunks
    BaiHalving halving(8, options);
    EXPECT_EQ(halving.chunksThisRound(), 1u);
    halving.halveRound();
    EXPECT_EQ(halving.chunksThisRound(), 2u);
    halving.halveRound();
    EXPECT_EQ(halving.chunksThisRound(), 4u);
    halving.halveRound();
    // Allowance would be 8, but the per-arm budget clamps it to 4.
    EXPECT_EQ(halving.chunksThisRound(), 4u);
}

TEST(Bai, HalvingDropsBottomHalfByMeanWithStableTies)
{
    BaiHalving halving(4, mcOptions());
    halving.update(0, statOf({0.3, 0.3}));
    halving.update(1, statOf({0.2, 0.2}));  // tied with 2, at the cut
    halving.update(2, statOf({0.2, 0.2}));
    halving.update(3, statOf({0.1, 0.1}));
    EXPECT_EQ(halving.halveRound(), 2u);
    EXPECT_FALSE(halving.arm(0).eliminated);
    EXPECT_TRUE(halving.arm(3).eliminated);
    // The tie straddles the keep boundary; the stable sort keeps index
    // order, so arm 1 makes the cut and arm 2 falls.
    EXPECT_FALSE(halving.arm(1).eliminated);
    EXPECT_TRUE(halving.arm(2).eliminated);
}

} // namespace
} // namespace softsku
