/**
 * @file
 * Fleet-wide tuning: one μSKU run per service×platform target, all
 * sharing a single work-stealing pool (core/orchestrator.hh).
 *
 * Usage:
 *   tune_fleet [--targets=web:skylake18,ads1:skylake18,web:broadwell16]
 *              [--sweep=independent|exhaustive|hillclimb] [--seed=1]
 *              [--jobs=N|auto] [--faults=off|mild|moderate|severe|k=v,..]
 *              [--fault-seed=N] [--cache-dir=DIR] [--trace-out=FILE]
 *              [--rollout=SERVERS] [--domains=RACKS[xREGIONS]]
 *              [--naive-waves] [--emit=DIR] [--metrics] [--progress]
 *              [--json] [--verify]
 *              [--log-level=silent|error|warn|info|debug]
 *
 * Each target's report is byte-identical to tuning that target alone,
 * at any --jobs value; --verify re-runs the fleet sequentially and
 * asserts exactly that, printing the shared-pool speedup.
 *
 * --cache-dir persists every measured A/B comparison; a repeat
 * invocation replays them (cache hits == comparisons) and emits the
 * same reports without touching the simulator.
 *
 * --rollout deploys every target's winning soft SKU across a
 * SERVERS-wide fleet slice after tuning, sequentially in target
 * order.  --domains gives those slices a failure-domain topology and
 * arms the blast-radius-aware rollout posture (stratified waves,
 * per-rack control quorum, domain-triaged verdicts); --naive-waves
 * keeps the id-ordered planner for comparison.  Tool metrics and
 * fleet telemetry land in one shared ODS store.
 *
 * --emit=DIR writes one dashboard JSON per target into DIR as
 * <service>.<platform>.v<schema>.json: {schema_version, target,
 * report, rollout?, health?} — the rollout and health sections appear
 * when --rollout ran.  File names are schema-versioned so dashboards
 * poll stable paths.
 */

#include <cstdio>

#include "core/orchestrator.hh"
#include "core/report_writer.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace softsku;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    ToolOptions tool = ToolOptions::fromArgs(args);
    tool.apply();

    // Modest simulation windows keep a three-target fleet interactive.
    SimOptions simOpts;
    simOpts.warmupInstructions = 600'000;
    simOpts.measureInstructions = 800'000;

    std::vector<TuneTarget> targets = TuneTarget::parseList(
        args.get("targets", "web:skylake18,ads1:skylake18,"
                            "web:broadwell16"),
        simOpts);
    SweepMode sweep = sweepModeFromString(args.get("sweep", "independent"));
    auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    for (TuneTarget &target : targets) {
        target.spec.sweep = sweep;
        target.spec.seed = seed;
    }

    FleetOrchestrator orchestrator(
        FleetOrchestratorOptions::fromTool(tool));
    FleetTuneResult fleet = orchestrator.tuneAll(targets);

    if (args.has("verify")) {
        // Re-tune sequentially (no pool, no driver threads) and demand
        // byte-identical reports — the determinism contract the
        // orchestrator is built on.
        FleetOrchestratorOptions serialOptions =
            FleetOrchestratorOptions::fromTool(tool);
        serialOptions.jobs = 1;
        serialOptions.cacheDir.clear();  // measure, don't replay
        FleetTuneResult serial =
            FleetOrchestrator(serialOptions).tuneAll(targets);
        for (size_t i = 0; i < targets.size(); ++i) {
            std::string pooled = fleet.reports[i].toJson().dump(2);
            std::string alone = serial.reports[i].toJson().dump(2);
            if (pooled != alone) {
                fatal("verify FAILED: %s report differs between "
                      "shared-pool and sequential runs",
                      targets[i].name().c_str());
            }
        }
        std::printf("verify OK: %zu reports byte-identical "
                    "(shared pool %.1fs vs sequential %.1fs, %.2fx)\n",
                    targets.size(), fleet.wallSec, serial.wallSec,
                    fleet.wallSec > 0.0 ? serial.wallSec / fleet.wallSec
                                        : 0.0);
    }

    // Optional phase 2: deploy every winner across a fleet slice.
    std::vector<FleetRolloutOutcome> rollouts;
    bool doRollout = args.has("rollout");
    if (doRollout) {
        FleetRolloutPlan plan;
        plan.servers = static_cast<int>(args.getInt("rollout", 32));
        plan.topology = FleetTopology::fromSpec(tool.domains);
        if (!plan.topology.trivial() && !args.has("naive-waves"))
            plan.policy = RolloutPolicy::blastRadiusAware();
        OdsStore ods;
        rollouts =
            orchestrator.rolloutAll(targets, fleet, plan, ods);
    }

    tool.writeTrace();

    if (!tool.emitDir.empty()) {
        for (size_t i = 0; i < targets.size(); ++i) {
            Json doc = Json::object();
            doc.set("schema_version", Json(kReportSchemaVersion));
            doc.set("target", Json(targets[i].name()));
            doc.set("report", fleet.reports[i].toJson());
            if (doRollout) {
                doc.set("rollout", rollouts[i].rollout.toJson());
                doc.set("health", rollouts[i].health);
            }
            emitTargetReport(tool.emitDir,
                             targets[i].spec.microservice,
                             targets[i].spec.platform, doc);
        }
    }

    if (args.has("json")) {
        Json doc = Json::array();
        for (size_t i = 0; i < fleet.reports.size(); ++i) {
            Json entry = fleet.reports[i].toJson();
            if (doRollout)
                entry.set("rollout", rollouts[i].rollout.toJson());
            doc.push(std::move(entry));
        }
        std::printf("%s\n", doc.dump(2).c_str());
        return 0;
    }

    TextTable table;
    table.header({"target", "gain% vs prod", "validated", "A/B tests",
                  "cache hits", "hours"});
    for (size_t i = 0; i < targets.size(); ++i) {
        const UskuReport &report = fleet.reports[i];
        table.row({targets[i].name(),
                   format("%+.2f", report.gainOverProductionPercent()),
                   report.validation.stable ? "stable" : "unstable",
                   format("%llu", static_cast<unsigned long long>(
                                      report.abComparisons)),
                   format("%llu", static_cast<unsigned long long>(
                                      report.cacheHits)),
                   format("%.1f", report.measurementHours)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("fleet: %llu A/B tests (%llu cache-served) across %zu "
                "targets in %.1fs wall\n",
                static_cast<unsigned long long>(fleet.totalComparisons()),
                static_cast<unsigned long long>(fleet.totalCacheHits()),
                targets.size(), fleet.wallSec);

    if (doRollout) {
        TextTable deploys;
        deploys.header({"target", "rollout", "converted", "fleet gain%",
                        "resumes", "racks out", "verdict"});
        for (const FleetRolloutOutcome &outcome : rollouts) {
            const RolloutResult &r = outcome.rollout;
            deploys.row(
                {outcome.target,
                 r.completed ? "completed"
                             : (r.aborted ? "aborted" : "incomplete"),
                 format("%d", r.serversConverted),
                 format("%+.2f", r.fleetGainPercent),
                 format("%d", r.resumes),
                 format("%d", r.domainsExcluded),
                 r.completed ? "healthy"
                             : (r.configBlamed ? "config blamed"
                                               : "domain fault")});
        }
        std::printf("%s\n", deploys.render().c_str());
    }
    return 0;
}
