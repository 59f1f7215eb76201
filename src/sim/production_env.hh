/**
 * @file
 * The production measurement environment μSKU's A/B tests run in.
 *
 * A/B testing on live traffic (paper Sec. 4) means: two identical
 * servers in the same fleet face the same diurnally varying load; each
 * EMON sample carries measurement noise; service code is pushed every
 * few hours, perturbing behaviour.  The environment models all three so
 * μSKU's statistics machinery — warm-up discard, sample spacing, 95%
 * confidence, the ~30 k-sample cutoff — has real work to do.
 *
 * Ground-truth performance per knob configuration comes from the
 * deterministic trace-driven simulator, priced in two memoized stages
 * (event pass, roll-up; see SimulationCache); A/B samples are drawn
 * around the truth with shared (common-mode) load factors and
 * independent per-server noise, exactly the structure that makes
 * paired A/B measurement beat naive comparison.
 */

#ifndef SOFTSKU_SIM_PRODUCTION_ENV_HH
#define SOFTSKU_SIM_PRODUCTION_ENV_HH

#include <memory>

#include "arch/platform.hh"
#include "core/knobs.hh"
#include "sim/counters.hh"
#include "sim/faults.hh"
#include "sim/service_sim.hh"
#include "stats/rng.hh"
#include "workload/profile.hh"

namespace softsku {

/** One paired A/B observation (same instant, same fleet load). */
struct PairedSample
{
    double mipsA = 0.0;
    double mipsB = 0.0;
    double loadFactor = 1.0;    //!< common-mode diurnal load at sample time
    bool dropped = false;       //!< EMON pair lost (fault injection)
    bool corruptedA = false;    //!< A's reading was spiked/zeroed
    bool corruptedB = false;    //!< B's reading was spiked/zeroed
};

/** Tunable noise characteristics of the environment. */
struct EnvironmentNoise
{
    /** Peak-to-trough amplitude of the diurnal load curve. */
    double diurnalAmplitude = 0.06;
    /** Log-normal sigma of per-sample EMON measurement noise. */
    double measurementSigma = 0.012;
    /** Relative behaviour perturbation applied at each code push. */
    double codePushSigma = 0.004;
    /** Seconds between code pushes (O(hours), Sec. 4). */
    double codePushIntervalSec = 4.0 * 3600.0;
};

/** A simulated fleet slice serving live traffic for one microservice. */
class ProductionEnvironment
{
  public:
    /**
     * @param profile  the microservice under test
     * @param platform the server SKU
     * @param seed     environment seed (fleet noise streams)
     * @param simOpts  window sizing for ground-truth simulations
     */
    ProductionEnvironment(const WorkloadProfile &profile,
                          const PlatformSpec &platform,
                          std::uint64_t seed = 1,
                          const SimOptions &simOpts = SimOptions{});

    /**
     * Ground-truth platform MIPS for a configuration at peak load.
     * Priced once per distinct actuated configuration (actuatedKnobs),
     * then cached; the cache is shared with every clone() of this
     * environment and is safe to populate from concurrent sweep tasks.
     */
    double trueMips(const KnobConfig &config);

    /**
     * Full counter set for a configuration: the roll-up of the event
     * pass its eventKnobs() projection shares (cached with the truth).
     */
    const CounterSet &counters(const KnobConfig &config);

    /**
     * An independent measurement slice of the same fleet: identical
     * service, platform, noise model, and ground-truth cache (shared,
     * so a configuration is never simulated twice across slices), but
     * with its noise RNG on the substream @p streamId.  Two clones
     * with the same id replay identical sample sequences; clones with
     * different ids are statistically independent.  This is what each
     * parallel sweep task measures in.
     */
    ProductionEnvironment clone(std::uint64_t streamId) const;

    /** Diurnal load multiplier at wall-clock time @p timeSec. */
    double loadFactor(double timeSec) const;

    /**
     * Diurnal load times any injected traffic surge.  The surge term
     * is a pure function of time, so it is identical for every clone
     * and thread; with no fault plan this is exactly loadFactor().
     */
    double effectiveLoad(double timeSec) const;

    /**
     * Arm this environment (and every clone derived from it) with a
     * fault plan.  A default (all-zero) plan restores benign behavior
     * bit-for-bit: no extra RNG draws happen anywhere.
     */
    void setFaults(const FaultPlan &plan, std::uint64_t faultSeed);

    const FaultPlan &faults() const { return injector_.plan(); }

    /**
     * The fault-decision substream @p streamId of this environment's
     * plan/seed — what FleetSlice and the validation chunks use so
     * their fault schedules never interleave with A/B measurement.
     */
    FaultInjector injectorForStream(std::uint64_t streamId) const;

    /** Did a server crash in the last @p dtSec of measurement? */
    bool drawCrash(double dtSec);

    /** Did this knob apply fail? */
    bool drawApplyFailure();

    /**
     * Draw one paired A/B sample at time @p timeSec: both servers see
     * the same instantaneous load; measurement noise is independent.
     */
    PairedSample samplePair(const KnobConfig &a, const KnobConfig &b,
                            double timeSec);

    /**
     * Same draw, with the ground truths already in hand — the sweep
     * hot path: one truth lookup per A/B test instead of two string
     * builds and map probes per sample.
     */
    PairedSample samplePairTruth(double trueA, double trueB,
                                 double timeSec);

    /** Draw one single-server sample (used by the validation phase). */
    double sampleMips(const KnobConfig &config, double timeSec);

    /** Distinct configurations priced so far (roll-ups run). */
    size_t configsSimulated() const;

    /** Event passes run so far: distinct eventKnobs() projections. */
    size_t eventPasses() const;

    const WorkloadProfile &profile() const { return profile_; }
    const PlatformSpec &platform() const { return platform_; }

    /** The environment seed (identifies the fleet's noise streams). */
    std::uint64_t seed() const { return seed_; }

    /** Ground-truth simulation window sizing. */
    const SimOptions &simOptions() const { return simOpts_; }

    /** Seed of the armed fault plan (0 until setFaults). */
    std::uint64_t faultSeed() const { return faultSeed_; }

    EnvironmentNoise &noise() { return noise_; }
    const EnvironmentNoise &noise() const { return noise_; }

  private:
    /** The two stage memos, shared by an environment and all its
     *  clones (defined in production_env.cc). */
    struct SimulationCache;

    double codePushFactor(double timeSec) const;

    const WorkloadProfile &profile_;
    const PlatformSpec &platform_;
    std::uint64_t seed_;
    SimOptions simOpts_;
    EnvironmentNoise noise_;
    Rng rng_;
    std::uint64_t faultSeed_ = 0;
    FaultInjector injector_;
    std::shared_ptr<SimulationCache> cache_;
};

} // namespace softsku

#endif // SOFTSKU_SIM_PRODUCTION_ENV_HH
