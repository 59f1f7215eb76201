/**
 * @file
 * Memory-tier knobs on a far-memory platform: sweep the mba /
 * tier_policy / far_mem_ratio axes for Web on skylake18cxl and enforce
 * the PR's two invariants, not just report:
 *
 *   1. Determinism: the report must be byte-identical across
 *      --jobs=1/2/8 (deterministic replay extends to the new knobs).
 *   2. Legacy isolation: the same sweep on the no-far-tier skylake18
 *      never mentions a memory-tier knob — not in the spec, not in any
 *      serialized config.
 *
 * The table records each arm's measured gain so the tier model's shape
 * (MBA throttling hurts, promotion beats static placement) is visible
 * in CI logs.  `--json-out=FILE` dumps the numbers for
 * BENCH_memory_tier.json.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hh"
#include "core/knob_registry.hh"
#include "core/usku.hh"
#include "util/json.hh"

using namespace softsku;
using namespace softsku::bench;

namespace {

UskuReport
tune(const char *platform, const std::vector<KnobId> &knobs,
     const SimOptions &opts, unsigned jobs)
{
    ProductionEnvironment env(webProfile(), platformByName(platform),
                              opts.seed, opts);
    InputSpec spec;
    spec.microservice = "web";
    spec.platform = platform;
    spec.seed = opts.seed;
    spec.knobs = knobs;
    spec.normalize();

    UskuOptions options;
    options.jobs = jobs;
    Usku tool(env, options);
    return tool.run(spec);
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    printBanner("Memory tier",
                "mba / tier_policy / far_mem_ratio on a far-memory "
                "platform");

    SimOptions opts = defaultSimOptions(args);
    const std::vector<KnobId> tierKnobs = {
        KnobId::Mba, KnobId::TierPolicyKnob, KnobId::FarMemRatio};
    bool failed = false;

    // Invariant 1: byte-identical reports at every thread count.
    UskuReport report = tune("skylake18cxl", tierKnobs, opts, 1);
    std::string canonical = report.toJson().dump(2);
    for (unsigned jobs : {2u, 8u}) {
        UskuReport other = tune("skylake18cxl", tierKnobs, opts, jobs);
        if (other.toJson().dump(2) != canonical) {
            std::fprintf(stderr,
                         "FATAL: skylake18cxl report differs between "
                         "--jobs 1 and --jobs %u\n", jobs);
            failed = true;
        }
    }

    // Invariant 2: a no-far-tier platform never mentions the knobs.
    UskuReport legacy = tune("skylake18", {}, opts, 1);
    std::string legacyJson = legacy.toJson().dump(2);
    for (const char *key : {"\"mba\"", "\"tier_policy\"",
                            "\"far_mem_ratio\""}) {
        if (legacyJson.find(key) != std::string::npos) {
            std::fprintf(stderr,
                         "FATAL: %s leaked into the skylake18 report\n",
                         key);
            failed = true;
        }
    }

    TextTable table;
    table.header({"knob", "setting", "gain%", "signif", "samples"});
    Json rows = Json::array();
    for (const KnobSweep &sweep : report.map.sweeps) {
        for (const KnobOutcome &outcome : sweep.outcomes) {
            table.row({knobKey(sweep.id), outcome.value.label,
                       outcome.isBaseline
                           ? "base"
                           : format("%+.2f", outcome.gainPercent),
                       outcome.significant ? "yes" : "no",
                       format("%llu", (unsigned long long)
                                          outcome.samples)});
            Json row = Json::object();
            row.set("knob", Json(knobKey(sweep.id)));
            row.set("setting", Json(outcome.value.label));
            row.set("baseline", Json(outcome.isBaseline));
            row.set("gain_percent", Json(outcome.gainPercent));
            row.set("significant", Json(outcome.significant));
            row.set("samples", Json(outcome.samples));
            rows.push(std::move(row));
        }
        table.separator();
    }
    std::fputs(table.render().c_str(), stdout);

    note("soft SKU: %s", report.softSku.describe().c_str());
    note("gain over production %+.2f%%, over stock %+.2f%%",
         report.gainOverProductionPercent(), report.gainOverStockPercent());
    note("legacy guard: skylake18 report carries zero memory-tier keys "
         "and the identical seven-knob sweep set");

    const std::string jsonOut = args.get("json-out");
    if (!jsonOut.empty()) {
        Json doc = Json::object();
        doc.set("bench", Json("memory_tier"));
        doc.set("seed", Json(static_cast<std::uint64_t>(opts.seed)));
        doc.set("warmup_instructions",
                Json(static_cast<std::uint64_t>(
                    opts.warmupInstructions)));
        doc.set("measure_instructions",
                Json(static_cast<std::uint64_t>(
                    opts.measureInstructions)));
        doc.set("service", Json("web"));
        doc.set("platform", Json("skylake18cxl"));
        doc.set("soft_sku", Json(report.softSku.describe()));
        doc.set("gain_over_production_percent",
                Json(report.gainOverProductionPercent()));
        doc.set("gain_over_stock_percent",
                Json(report.gainOverStockPercent()));
        doc.set("jobs_byte_identical", Json(!failed));
        doc.set("arms", std::move(rows));
        writeJsonOut(jsonOut, doc);
    }

    return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
