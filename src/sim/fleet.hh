/**
 * @file
 * Fleet deployment model.
 *
 * The paper's motivation for *soft* SKUs is fungibility: hardware stays
 * uniform while servers are redeployed to different microservices —
 * and hence different soft SKUs — through reconfiguration and/or
 * reboot (Sec. 3).  This module models a slice of such a fleet:
 * servers carry a knob configuration and an assigned service, staged
 * rollouts move them from the production configuration to a soft SKU
 * (canary first, then waves), reconfiguration costs downtime only for
 * knobs that need a reboot, and fleet-aggregate throughput lands in
 * the ODS store the way the paper's prolonged validation reads it.
 */

#ifndef SOFTSKU_SIM_FLEET_HH
#define SOFTSKU_SIM_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/knobs.hh"
#include "sim/production_env.hh"
#include "telemetry/ods.hh"
#include "util/json.hh"

namespace softsku {

/**
 * The fleet's failure-domain hierarchy: servers live in racks, racks
 * in regions.  Racks are assigned as contiguous id blocks (physical
 * placement follows delivery order), which is exactly what makes a
 * naive index-ordered wave land inside one blast radius.
 */
struct FleetTopology
{
    int racks = 1;
    int regions = 1;

    /** True for the degenerate 1×1 topology (no domain machinery). */
    bool trivial() const { return racks <= 1 && regions <= 1; }

    /**
     * Parse a CLI spec: "" (trivial), "RACKS" ("8"), or
     * "RACKSxREGIONS" ("8x2").  fatal() on malformed input or
     * regions > racks.
     */
    static FleetTopology fromSpec(const std::string &spec);
};

/** One server in the fleet slice. */
struct FleetServer
{
    int id = 0;
    KnobConfig config;
    /** Failure domains (assigned by FleetSlice from its topology). */
    int rack = 0;
    int region = 0;
    /** Wall-clock second until which the server is down (reboot). */
    double offlineUntilSec = 0.0;
    /** Relative hardware performance (replacement drift, degradation). */
    double perfFactor = 1.0;
    /** Pulled from rotation by the operator (stuck reboot, etc.). */
    bool excluded = false;

    /**
     * Online at @p nowSec.  The boundary convention is pinned:
     * a server whose offlineUntilSec lands exactly on a telemetry tick
     * counts as online for that tick, for every consumer — baseline,
     * canary, and wave health sampling all go through this predicate.
     */
    bool online(double nowSec) const
    {
        return !excluded && nowSec >= offlineUntilSec;
    }
};

/** Rollout pacing policy. */
struct RolloutPolicy
{
    /** Servers converted in the canary phase. */
    int canaryServers = 1;
    /** Pre-rollout soak establishing the health-check baseline. */
    double baselineSoakSec = 1800.0;
    /** Canary soak time before the waves start. */
    double canarySoakSec = 4.0 * 3600.0;
    /** Telemetry cadence while judging the canary. */
    double canarySampleSec = 60.0;
    /** Fraction of the fleet converted per wave after the canary. */
    double waveFraction = 0.25;
    /** Time between waves. */
    double waveIntervalSec = 1.0 * 3600.0;
    /** Downtime charged when the new config needs a reboot. */
    double rebootDowntimeSec = 300.0;
    /** Abort threshold: canary regression (fraction) that cancels. */
    double abortOnRegression = 0.01;
    /** Remaining downtime beyond which a reboot counts as stuck and
     *  the server is pulled from rotation. */
    double rebootTimeoutSec = 1800.0;
    /** Extra knob-apply attempts before a server is skipped. */
    int applyRetries = 2;
    /**
     * How many times a rollout aborted by a failed *wave* health check
     * may resume: after the rollback and cool-down it re-establishes
     * the baseline on the surviving (non-excluded) servers, re-runs
     * the canary, and converts the fleet again in waves.  A canary
     * that itself regresses never resumes — that verdict is about the
     * configuration, not the fleet.  0 (the default) keeps the
     * single-shot behavior bit-for-bit: no extra telemetry ticks, no
     * extra fault draws.
     *
     * With domainVerdicts armed the resume budget is spent only on
     * *domain* faults (a rack died, the environment shifted); a
     * config-blamed failure rolls back and never resumes.
     */
    int resumeAttempts = 0;

    // --- Blast-radius awareness (all off by default; a trivial
    // topology ignores them, so legacy rollouts stay bit-for-bit).

    /**
     * Stratify every wave round-robin across racks instead of
     * converting in id order, and cap conversions per rack at half
     * the wave batch (surplus defers to later waves), so no wave
     * concentrates inside one blast radius.
     */
    bool stratifyWaves = false;
    /**
     * Unconverted baseline servers guaranteed per rack until the very
     * last waves — the in-domain control group the health checks read.
     */
    int domainQuorum = 0;
    /**
     * Triage failed health checks by domain before blaming the
     * configuration: a rack whose *control* servers regressed (or
     * died) is excluded and the rollout resumes; a fleet-wide control
     * regression re-baselines (environment shift); only a regression
     * the control groups don't share is blamed on the config.
     */
    bool domainVerdicts = false;
    /**
     * Pause conversions while the load-normalized fleet telemetry runs
     * this fraction above the baseline (a detected surge window).
     * 0 disables pausing.
     */
    double surgePauseThreshold = 0.0;
    /** Most consecutive surge-pause windows before converting anyway. */
    int maxSurgePauses = 4;

    /** The recommended posture for a fleet with a real topology:
     *  stratified waves, per-rack quorum of 1, domain verdicts, surge
     *  pausing at 8% upside, and a resume budget of 2 so domain-fault
     *  verdicts can actually act. */
    static RolloutPolicy blastRadiusAware();
};

/** Outcome of one staged rollout. */
struct RolloutResult
{
    bool completed = false;
    bool aborted = false;
    /** Converted waves were reverted by a failed health check. */
    bool rolledBack = false;
    double finishedAtSec = 0.0;
    int serversConverted = 0;
    /** Canary gain measured from paired ODS telemetry (canary mean vs
     *  control mean per tick — the common-mode load cancels). */
    double canaryGainPercent = 0.0;
    /** Telemetry ticks the canary judgment is based on. */
    std::uint64_t canarySamples = 0;
    /** Fleet QPS gain after full conversion vs the baseline soak, from
     *  load-normalized ODS telemetry. */
    double fleetGainPercent = 0.0;

    /** Fault/recovery telemetry observed during the rollout. */
    int wavesRolledBack = 0;
    int serversExcluded = 0;
    int serverCrashes = 0;
    int applyFailures = 0;
    int stuckReboots = 0;
    /** Times the rollout resumed after a wave rollback (bounded by
     *  RolloutPolicy::resumeAttempts). */
    int resumes = 0;

    /** Domain-fault telemetry (non-trivial topologies only). */
    int rackEvents = 0;        //!< rack power events observed
    int domainsExcluded = 0;   //!< racks pulled from rotation mid-rollout
    int surgePauses = 0;       //!< wave conversions deferred by surges
    /** Largest fraction of a wave batch converted inside one rack
     *  (the blast-radius exposure, relative to the wave size; 0
     *  without topology).  The stratified planner's per-domain cap
     *  keeps this at or below 0.5 whenever a wave converts at all. */
    double maxWaveDomainShare = 0.0;
    /** An abort's verdict: true when the health machinery blamed the
     *  *configuration* (rollback, no resume), false when it blamed a
     *  failure domain or could not judge. */
    bool configBlamed = false;

    Json toJson() const;
};

/**
 * A slice of servers all assigned to one microservice, measured
 * through a shared ProductionEnvironment.
 */
class FleetSlice
{
  public:
    /**
     * @param env      the service's production environment (owns the
     *                 per-config simulation cache)
     * @param servers  number of servers in the slice
     * @param initial  configuration every server starts with
     * @param topology failure-domain hierarchy; servers are assigned
     *                 to racks as contiguous id blocks, racks to
     *                 regions likewise.  The default trivial topology
     *                 keeps every legacy code path bit-for-bit.
     */
    FleetSlice(ProductionEnvironment &env, int servers,
               const KnobConfig &initial,
               const FleetTopology &topology = FleetTopology{});

    const FleetTopology &topology() const { return topology_; }

    /** Number of servers currently online at @p nowSec. */
    int onlineServers(double nowSec) const;

    /** Aggregate fleet MIPS at @p nowSec (offline servers contribute 0). */
    double fleetMips(double nowSec);

    /**
     * Apply @p config to server @p index immediately, charging reboot
     * downtime when any changed knob requires one.
     * @return true when a reboot was needed
     */
    bool reconfigure(int index, const KnobConfig &config, double nowSec,
                     double rebootDowntimeSec);

    /**
     * Run a staged rollout of @p target across the slice, sampling
     * fleet telemetry into @p ods every @p sampleEverySec.
     *
     * The canary converts first; after the soak, the canary's paired
     * gain is checked against the abort threshold; then waves convert
     * the remainder.  Returns the rollout outcome.
     */
    RolloutResult rollout(const KnobConfig &target,
                          const RolloutPolicy &policy, OdsStore &ods,
                          double startSec = 0.0,
                          double sampleEverySec = 300.0);

    /**
     * Degrade server @p index to @p perfFactor of nominal, immediately
     * (silent hardware fault: thermal throttling, a failing DIMM).
     * Ground truth for its configuration is unchanged — only the
     * sampled telemetry shows it, which is exactly what the rollout
     * health checks must catch.
     */
    void degradeServer(int index, double perfFactor);

    /** Like degradeServer, but taking effect at @p atSec during a
     *  future rollout (mid-rollout regression injection). */
    void scheduleDegradation(int index, double atSec, double perfFactor);

    /**
     * Schedule a directed rack power event: every server in @p rack
     * goes offline for @p downtimeSec at @p atSec during a future
     * rollout.  Deterministic counterpart to the stochastic
     * FaultPlan::rackEventPerHour hazard, for tests and benches.
     */
    void scheduleRackOutage(int rack, double atSec, double downtimeSec);

    const std::vector<FleetServer> &servers() const { return servers_; }

  private:
    /** One rollout() call's state and phases (fleet.cc). */
    friend class RolloutRun;

    /** A scheduled mid-rollout hardware degradation. */
    struct PendingDegradation
    {
        int index;
        double atSec;
        double perfFactor;
    };

    /** A scheduled directed rack power event. */
    struct PendingOutage
    {
        int rack;
        double atSec;
        double downtimeSec;
    };

    /** One sampled MIPS reading for a server at @p nowSec. */
    double serverMips(const FleetServer &server, double load);

    ProductionEnvironment &env_;
    std::vector<FleetServer> servers_;
    std::vector<PendingDegradation> pending_;
    std::vector<PendingOutage> pendingOutages_;
    FleetTopology topology_;
    Rng rng_;
};

/**
 * True when switching @p from → @p to requires a reboot: some knob
 * whose descriptor sets requiresReboot (core count, SHP reservation)
 * changes value.
 */
bool reconfigurationNeedsReboot(const KnobConfig &from,
                                const KnobConfig &to);

} // namespace softsku

#endif // SOFTSKU_SIM_FLEET_HH
