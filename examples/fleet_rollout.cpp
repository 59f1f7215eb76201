/**
 * @file
 * Fleet rollout: take the soft SKU μSKU found for a service and deploy
 * it across a fleet slice the way an operator would — canary, soak,
 * staged waves, reboot downtime for boot-time knobs — with fleet
 * telemetry landing in the ODS store throughout.  Also demonstrates
 * the fungibility story: the same servers are then redeployed to a
 * different microservice's soft SKU.
 *
 * Usage: fleet_rollout [--service=web] [--platform=skylake18]
 *                      [--servers=16] [--seed=1] [--report=path.md]
 *                      [--resume-attempts=N] [--jobs=N|auto]
 *                      [--faults=off|mild|moderate|severe|k=v,..]
 *                      [--fault-seed=N] [--domains=RACKS[xREGIONS]]
 *                      [--naive-waves] [--quorum=N] [--cache-dir=DIR]
 *                      [--health-report] [--emit=DIR]
 *                      [--trace-out=FILE] [--metrics]
 *                      [--log-level=silent|error|warn|info|debug]
 *
 * --health-report prints the FleetHealthView dashboard over the
 * rollout window: top regressed fleet series and the per-rack health
 * matrix, read from the same ODS store the health checks used.
 *
 * --emit=DIR writes one dashboard JSON per target into DIR as
 * <service>.<platform>.v<schema>.json: the tuning report, the rollout
 * verdict, and the health view in one schema-versioned file a
 * dashboard can poll.
 *
 * --trace-out records the whole pipeline — sweep comparisons,
 * validation chunks, then the rollout's soak/canary/wave/health-check/
 * rollback phases — as Chrome trace_event JSON for chrome://tracing
 * or Perfetto.
 *
 * --faults runs the whole pipeline — sweep and rollout — in hostile
 * production mode: crashes, telemetry dropout, surges, apply failures
 * and stuck reboots, all seeded and replayable.  The rollout falls
 * back on its health checks: canary judged from paired telemetry,
 * per-wave load-normalized health gates, automatic rollback.
 *
 * --resume-attempts lets the rollout pick itself back up after a
 * wave-health rollback: re-baseline on the surviving servers,
 * re-canary, and retry the waves up to N times before giving up.
 *
 * --domains gives the fleet a failure-domain topology (racks, and
 * optionally regions: "8" or "8x2") and switches the rollout to the
 * blast-radius-aware posture: waves stratified across racks, a
 * per-rack quorum of unconverted control servers, domain-triaged
 * health verdicts (a dead or regressed rack is excluded and the
 * rollout resumes; only a regression no control group shares is
 * blamed on the config), and conversion pauses during surge windows.
 * --naive-waves keeps the id-ordered wave planner for comparison, and
 * --quorum overrides the per-rack control holdback.
 */

#include <cstdio>

#include "core/report_writer.hh"
#include "core/usku.hh"
#include "services/services.hh"
#include "sim/fleet.hh"
#include "telemetry/health_view.hh"
#include "telemetry/series_names.hh"
#include "telemetry/tmam_report.hh"
#include "util/cli.hh"
#include "util/strings.hh"

using namespace softsku;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    ToolOptions tool = ToolOptions::fromArgs(args);
    tool.apply();
    const WorkloadProfile &service =
        serviceByName(args.get("service", "web"));
    const PlatformSpec &platform =
        platformByName(args.get("platform", service.defaultPlatform));
    int serverCount = static_cast<int>(args.getInt("servers", 16));
    auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));

    SimOptions simOpts;
    simOpts.warmupInstructions = 600'000;
    simOpts.measureInstructions = 800'000;
    ProductionEnvironment env(service, platform, seed, simOpts);

    // Fault arming (and the hostile robustness escalation) now rides
    // in through UskuOptions::fromTool; the Usku constructor arms the
    // environment, which this tool's fleet slice shares.
    Usku usku(env, UskuOptions::fromTool(tool));

    // Step 1: what does the bottleneck picture look like?
    KnobConfig production = productionConfig(platform, service);
    const CounterSet &counters = env.counters(production);
    std::printf("%s\n%s\n\n",
                renderTmamReport(counters, service.displayName).c_str(),
                suggestKnobs(counters,
                             platform.peakMemBandwidthGBs).c_str());

    // Step 2: let μSKU find the soft SKU.
    InputSpec spec;
    spec.microservice = service.name;
    spec.platform = platform.name;
    spec.seed = seed;
    spec.applySearchOverrides(tool);
    spec.normalize();
    UskuReport report = usku.run(spec);
    std::printf("%s\n", report.summary().c_str());
    if (args.has("report"))
        writeMarkdownReport(report, args.get("report"));

    // Step 3: staged rollout across the fleet slice.  With a real
    // topology the blast-radius-aware posture is the default; the
    // tuning run's own metrics are persisted into the same ODS store
    // the rollout health checks read.
    FleetTopology topology = FleetTopology::fromSpec(tool.domains);
    FleetSlice fleet(env, serverCount, production, topology);
    OdsStore ods;
    ods.recordSnapshot(report.metrics, 0.0);
    RolloutPolicy policy;
    if (!topology.trivial() && !args.has("naive-waves"))
        policy = RolloutPolicy::blastRadiusAware();
    if (args.has("quorum"))
        policy.domainQuorum = static_cast<int>(args.getInt("quorum", 1));
    if (args.has("resume-attempts"))
        policy.resumeAttempts =
            static_cast<int>(args.getInt("resume-attempts", 0));
    RolloutResult rollout =
        fleet.rollout(report.softSku, policy, ods);

    std::printf("\nrollout: %s — %d/%d servers converted, canary "
                "%+.2f%%, fleet %+.2f%%, %d resume(s), finished after "
                "%.1f h\n",
                rollout.completed ? "completed"
                                  : (rollout.aborted ? "ABORTED"
                                                     : "incomplete"),
                rollout.serversConverted, serverCount,
                rollout.canaryGainPercent, rollout.fleetGainPercent,
                rollout.resumes, rollout.finishedAtSec / 3600.0);
    if (tool.faults.any())
        std::printf("rollout faults: %d crashes, %d apply failures, "
                    "%d stuck reboots, %d excluded, %d waves rolled "
                    "back\n",
                    rollout.serverCrashes, rollout.applyFailures,
                    rollout.stuckReboots, rollout.serversExcluded,
                    rollout.wavesRolledBack);
    if (!topology.trivial())
        std::printf("blast radius: %d racks x %d regions, %d rack "
                    "event(s), %d rack(s) excluded, %d surge "
                    "pause(s), max wave-in-one-rack share %.0f%%, "
                    "verdict %s\n",
                    topology.racks, topology.regions,
                    rollout.rackEvents, rollout.domainsExcluded,
                    rollout.surgePauses,
                    rollout.maxWaveDomainShare * 100.0,
                    rollout.completed
                        ? "healthy"
                        : (rollout.configBlamed ? "config blamed"
                                                : "domain fault"));

    auto mips = ods.aggregate(fleetSeriesName(service.name, "mips"), 0,
                              1e18);
    std::printf("fleet telemetry: %llu samples, mean %.0f MIPS, "
                "p95 %.0f, p99 %.0f MIPS\n",
                static_cast<unsigned long long>(mips.count), mips.mean,
                mips.p95, mips.p99);

    FleetHealthView health(ods);
    FleetHealthReport healthReport =
        health.report(service.name, 0.0, rollout.finishedAtSec);
    if (args.has("health-report"))
        std::printf("\n%s", healthReport.renderText().c_str());

    if (!tool.emitDir.empty()) {
        Json doc = Json::object();
        doc.set("schema_version", Json(kReportSchemaVersion));
        doc.set("service", Json(service.name));
        doc.set("platform", Json(platform.name));
        doc.set("report", report.toJson());
        doc.set("rollout", rollout.toJson());
        doc.set("health", healthReport.toJson());
        emitTargetReport(tool.emitDir, service.name, platform.name, doc);
    }

    ods.publishGauges();
    if (tool.metrics) {
        MetricsSnapshot snap = usku.fullMetrics();
        snap.append(MetricsRegistry::global().snapshot());
        std::printf("\n%s\n", snap.renderTable().c_str());
    }
    tool.writeTrace();
    return 0;
}
