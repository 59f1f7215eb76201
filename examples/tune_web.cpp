/**
 * @file
 * End-to-end μSKU run: tune a microservice's soft SKU via A/B testing
 * in the simulated production environment, then print the design-space
 * map, the composed soft SKU, and its validated gains.
 *
 * Usage:
 *   tune_web [--service=web] [--platform=skylake18]
 *            [--sweep=independent|exhaustive|hillclimb]
 *            [--knobs=cdp,thp,shp] [--list-knobs] [--seed=1] [--json]
 *            [--jobs=N|auto] [--faults=off|mild|moderate|severe|k=v,..]
 *            [--fault-seed=N] [--cache-dir=DIR] [--trace-out=FILE]
 *            [--metrics] [--progress]
 *            [--log-level=silent|error|warn|info|debug]
 *
 * --knobs restricts the sweep to the named registry keys (the shared
 * ToolOptions flag); --list-knobs prints the knob registry — key,
 * name, reboot requirement, platform availability — and exits.
 *
 * --jobs parallelizes the A/B sweep across N worker threads; the
 * report is bit-identical for every N (deterministic replay).
 *
 * --cache-dir persists every measured A/B comparison to disk; a repeat
 * run with the same service/platform/seed/fault plan replays them all
 * (the report counts them as cache hits) and emits a byte-identical
 * report without re-simulating.
 *
 * --trace-out writes a Chrome trace_event JSON of every sweep
 * comparison, retry, cache hit, and validation chunk — load it in
 * chrome://tracing or Perfetto.  --metrics prints the flight-recorder
 * registry (deterministic + operational rows); --progress renders a
 * live done/total + ETA line on stderr while the sweep runs.
 *
 * --faults arms hostile-production mode: seeded server crashes, EMON
 * dropout/corruption, load surges, apply failures, and stuck reboots
 * perturb the sweep, and the tool's fault defenses (retries, robust
 * filtering, the QoS guardrail) switch on.  Same seed + plan replay
 * byte-identically at any --jobs value.
 */

#include <cstdio>

#include "core/knob_registry.hh"
#include "core/usku.hh"
#include "services/services.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace softsku;

namespace {

/** --list-knobs: the registry as a table, one row per descriptor. */
void
printKnobRegistry()
{
    TextTable table;
    table.header({"key", "name", "reboot", "availability"});
    for (const KnobDescriptor &d : knobRegistry()) {
        std::string availability = "all platforms";
        if (d.availableOn) {
            std::vector<std::string> names;
            for (const PlatformSpec *platform : allPlatforms()) {
                if (d.availableOn(*platform))
                    names.push_back(platform->name);
            }
            availability = names.empty() ? "none" : join(names, ", ");
        }
        table.row({d.key, d.displayName, d.requiresReboot ? "yes" : "no",
                   availability});
    }
    std::printf("%s\n", table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    if (args.has("list-knobs")) {
        printKnobRegistry();
        return 0;
    }
    ToolOptions tool = ToolOptions::fromArgs(args);
    tool.apply();

    InputSpec spec;
    spec.microservice = args.get("service", "web");
    spec.platform = args.get("platform", "skylake18");
    spec.sweep = sweepModeFromString(args.get("sweep", "independent"));
    spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    spec.applySearchOverrides(tool);
    spec.normalize();

    const WorkloadProfile &service = serviceByName(spec.microservice);
    const PlatformSpec &platform = platformByName(spec.platform);

    // Modest simulation windows keep a full sweep interactive.
    SimOptions simOpts;
    simOpts.warmupInstructions = 700'000;
    simOpts.measureInstructions = 900'000;
    ProductionEnvironment env(service, platform, spec.seed, simOpts);

    // Fault arming, robustness escalation, shared pool sizing, and the
    // persistent cache all ride in through UskuOptions now.
    Usku usku(env, UskuOptions::fromTool(tool));
    UskuReport report = usku.run(spec);

    tool.writeTrace();

    if (args.has("json")) {
        std::printf("%s\n", report.toJson().dump(2).c_str());
        if (tool.metrics)
            std::fprintf(stderr, "%s\n",
                         usku.fullMetrics().renderTable().c_str());
        return 0;
    }

    std::printf("%s\n", report.summary().c_str());

    if (tool.metrics)
        std::printf("%s\n", usku.fullMetrics().renderTable().c_str());

    TextTable table;
    table.header({"knob", "setting", "gain%", "ci%", "signif", "samples"});
    for (const KnobSweep &sweep : report.map.sweeps) {
        for (const KnobOutcome &outcome : sweep.outcomes) {
            table.row({knobKey(sweep.id),
                       outcome.value.label,
                       outcome.isBaseline
                           ? "base"
                           : format("%+.2f", outcome.gainPercent),
                       format("%.2f", outcome.gainCiPercent),
                       outcome.significant ? "yes" : "no",
                       format("%llu", static_cast<unsigned long long>(
                                          outcome.samples))});
        }
        table.separator();
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
