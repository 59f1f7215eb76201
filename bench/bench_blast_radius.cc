/**
 * @file
 * Blast radius: staged rollouts under correlated failure domains.
 *
 * Servers arrive rack-by-rack, so a naive id-ordered wave converts one
 * blast radius at a time — and a rack-scoped hardware event during the
 * rollout is indistinguishable from a bad configuration when every
 * health signal comes from the same sick domain.  This bench runs the
 * same hostile scenarios under the naive posture and the
 * blast-radius-aware one (stratified waves, per-rack control quorum,
 * domain-triaged verdicts) and enforces the claims:
 *
 *   1. A rack that silently degrades is *excluded* by the aware
 *      posture (the rollout resumes and completes), while the naive
 *      posture falsely blames the configuration and aborts for good.
 *   2. No aware wave ever lands more than half its conversions inside
 *      one rack; the naive planner routinely converts a whole rack
 *      per wave.
 *   3. The full pipeline — tuning plus rollout, faults armed — is
 *      byte-identical at --jobs 1, 2, and 8.
 *
 * `--json-out=FILE` dumps the numbers for BENCH_blast_radius.json.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hh"
#include "core/usku.hh"
#include "sim/fleet.hh"
#include "util/json.hh"
#include "util/thread_pool.hh"

using namespace softsku;
using namespace softsku::bench;

namespace {

/** The correlated hostile plan every scenario runs under. */
const char *kPlanSpec = "mild,rack=0.002,drift=0.05";

/** One hostile scenario, injected the same way for both postures. */
struct Scenario
{
    const char *name;
    const char *story;
    void (*inject)(FleetSlice &fleet);
};

void
injectNothing(FleetSlice &)
{
}

/** Rack 0 — the canary's rack — silently degrades during the canary
 *  soak.  The canary regresses hard against the fleet-wide control. */
void
injectCanaryRackStorm(FleetSlice &fleet)
{
    for (int i = 0; i < 8; ++i)
        fleet.scheduleDegradation(i, 2500.0, 0.70);
}

/** Rack 2 loses half its throughput mid-wave (thermal event). */
void
injectMidWaveRackStorm(FleetSlice &fleet)
{
    for (int i = 16; i < 24; ++i)
        fleet.scheduleDegradation(i, 4700.0, 0.50);
}

/** A directed rack power event while the waves are converting. */
void
injectRackPowerEvent(FleetSlice &fleet)
{
    fleet.scheduleRackOutage(3, 4000.0, 1800.0);
}

RolloutResult
runRollout(const SimOptions &opts, const KnobConfig &winner,
           const Scenario &scenario, bool aware)
{
    const WorkloadProfile &service = serviceByName("web");
    const PlatformSpec &platform = platformByName("skylake18");
    ProductionEnvironment env(service, platform, opts.seed, opts);
    env.setFaults(FaultPlan::fromSpec(kPlanSpec), opts.seed);

    KnobConfig production = productionConfig(platform, service);
    FleetSlice fleet(env, 32, production,
                     FleetTopology::fromSpec("4x2"));
    scenario.inject(fleet);

    RolloutPolicy policy;
    if (aware) {
        policy = RolloutPolicy::blastRadiusAware();
    } else {
        // The naive posture still gets the resume budget — the point
        // is the planner and the verdicts, not a handicap.
        policy.resumeAttempts = 2;
    }
    policy.canarySoakSec = 1800.0;
    policy.waveIntervalSec = 600.0;

    OdsStore ods;
    return fleet.rollout(winner, policy, ods);
}

/** Tune web:skylake18 under the hostile plan, then deploy the winner
 *  with the aware posture against the mid-wave storm.  The whole
 *  artifact must be thread-count invariant. */
std::string
pipelineFingerprint(const SimOptions &opts, unsigned jobs,
                    const Scenario &scenario)
{
    const WorkloadProfile &service = serviceByName("web");
    const PlatformSpec &platform = platformByName("skylake18");
    ProductionEnvironment env(service, platform, opts.seed, opts);
    env.setFaults(FaultPlan::fromSpec(kPlanSpec), opts.seed);

    InputSpec spec;
    spec.microservice = service.name;
    spec.platform = platform.name;
    spec.seed = opts.seed;
    spec.normalize();

    UskuOptions options;
    options.jobs = jobs;
    options.robustness = RobustnessPolicy::hostile();
    Usku tool(env, options);
    UskuReport report = tool.run(spec);

    KnobConfig production = productionConfig(platform, service);
    FleetSlice fleet(env, 32, production,
                     FleetTopology::fromSpec("4x2"));
    scenario.inject(fleet);
    OdsStore ods;
    RolloutPolicy policy = RolloutPolicy::blastRadiusAware();
    policy.canarySoakSec = 1800.0;
    policy.waveIntervalSec = 600.0;
    RolloutResult rollout = fleet.rollout(report.softSku, policy, ods);

    Json doc = Json::object();
    doc.set("report", report.toJson());
    doc.set("rollout", rollout.toJson());
    return doc.dump(2);
}

const char *
outcome(const RolloutResult &r)
{
    if (r.completed)
        return "completed";
    return r.configBlamed ? "config blamed" : "domain fault";
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    printBanner("Blast radius",
                "stratified rollouts vs correlated rack failures");

    SimOptions opts = defaultSimOptions(args);
    opts.warmupInstructions = 500'000;
    opts.measureInstructions = 700'000;

    const Scenario scenarios[] = {
        {"calm fleet", "no directed event", injectNothing},
        {"canary-rack storm", "rack 0 degrades during canary soak",
         injectCanaryRackStorm},
        {"mid-wave rack storm", "rack 2 halves mid-rollout",
         injectMidWaveRackStorm},
        {"rack power event", "rack 3 dark for 30 min of waves",
         injectRackPowerEvent},
    };

    // The deployable winner: the production config plus THP — a
    // runtime-only knob, so conversions charge no reboot downtime and
    // every health signal is about performance, not availability.
    KnobConfig production =
        productionConfig(platformByName("skylake18"),
                         serviceByName("web"));
    KnobConfig winner = production;
    winner.thp = ThpMode::Always;

    TextTable table;
    table.header({"scenario", "posture", "outcome", "converted",
                  "resumes", "racks out", "rack events",
                  "max wave share", "waves rolled back"});

    bool failed = false;
    int naiveConfigBlamed = 0, awareConfigBlamed = 0;
    Json rows = Json::array();
    for (const Scenario &scenario : scenarios) {
        RolloutResult naive = runRollout(opts, winner, scenario, false);
        RolloutResult aware = runRollout(opts, winner, scenario, true);
        naiveConfigBlamed += naive.configBlamed;
        awareConfigBlamed += aware.configBlamed;

        struct Row
        {
            const RolloutResult *r;
            const char *posture;
        };
        for (const Row &row : {Row{&naive, "naive"}, Row{&aware, "aware"}}) {
            const RolloutResult &r = *row.r;
            table.row({scenario.name, row.posture, outcome(r),
                       format("%d", r.serversConverted),
                       format("%d", r.resumes),
                       format("%d", r.domainsExcluded),
                       format("%d", r.rackEvents),
                       format("%.0f%%", r.maxWaveDomainShare * 100.0),
                       format("%d", r.wavesRolledBack)});
            Json entry = Json::object();
            entry.set("scenario", Json(std::string(scenario.name)));
            entry.set("posture", Json(std::string(row.posture)));
            entry.set("rollout", r.toJson());
            rows.push(std::move(entry));
        }

        // Claim 2: the aware planner never concentrates a wave.
        if (aware.maxWaveDomainShare > 0.5) {
            std::fprintf(stderr,
                         "FATAL: %s: aware wave put %.0f%% of its "
                         "conversions in one rack\n", scenario.name,
                         aware.maxWaveDomainShare * 100.0);
            failed = true;
        }
    }

    // Claim 1, sharpened on the canary-rack storm: the naive posture
    // blames the config and gives up; the aware posture excludes the
    // sick rack and finishes the fleet.
    RolloutResult naiveStorm =
        runRollout(opts, winner, scenarios[1], false);
    RolloutResult awareStorm =
        runRollout(opts, winner, scenarios[1], true);
    if (!(naiveStorm.aborted && naiveStorm.configBlamed)) {
        std::fprintf(stderr, "FATAL: canary-rack storm did not trick "
                             "the naive posture into a config abort\n");
        failed = true;
    }
    if (!awareStorm.completed || awareStorm.configBlamed ||
        awareStorm.domainsExcluded < 1) {
        std::fprintf(stderr, "FATAL: aware posture did not exclude the "
                             "sick rack and complete\n");
        failed = true;
    }
    if (awareConfigBlamed >= naiveConfigBlamed) {
        std::fprintf(stderr,
                     "FATAL: aware posture config-blamed %d rollouts "
                     "vs naive %d\n", awareConfigBlamed,
                     naiveConfigBlamed);
        failed = true;
    }

    // Claim 3: pipeline fingerprint is thread-count invariant.
    const unsigned jobLevels[] = {1, 2, 8};
    std::string fingerprint;
    bool identical = true;
    for (unsigned jobs : jobLevels) {
        std::string fp = pipelineFingerprint(opts, jobs, scenarios[2]);
        if (fingerprint.empty())
            fingerprint = fp;
        else if (fp != fingerprint)
            identical = false;
    }
    if (!identical) {
        std::fprintf(stderr, "FATAL: tune+rollout artifact differs "
                             "across --jobs 1/2/8\n");
        failed = true;
    }

    std::printf("%s\n", table.render().c_str());
    note("plan: %s on a 4x2 topology, 32 servers, 8 per rack "
         "(contiguous delivery order)", kPlanSpec);
    note("naive = id-ordered waves, no domain verdicts (resume budget "
         "2); aware = RolloutPolicy::blastRadiusAware()");
    note("config-blamed aborts: naive %d, aware %d; tune+rollout "
         "byte-identical across --jobs 1/2/8: %s", naiveConfigBlamed,
         awareConfigBlamed, identical ? "yes" : "NO");

    const std::string jsonOut = args.get("json-out");
    if (!jsonOut.empty()) {
        Json doc = Json::object();
        doc.set("bench", Json("blast_radius"));
        doc.set("seed", Json(static_cast<std::uint64_t>(opts.seed)));
        doc.set("plan", Json(std::string(kPlanSpec)));
        doc.set("topology", Json("4x2"));
        doc.set("servers", Json(static_cast<int>(32)));
        doc.set("scenarios", std::move(rows));
        Json aggregate = Json::object();
        aggregate.set("naive_config_blamed",
                      Json(static_cast<int>(naiveConfigBlamed)));
        aggregate.set("aware_config_blamed",
                      Json(static_cast<int>(awareConfigBlamed)));
        aggregate.set("jobs_invariant", Json(identical));
        doc.set("aggregate", std::move(aggregate));
        writeJsonOut(jsonOut, doc);
    }

    return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
