/**
 * @file
 * Adaptive search: racing vs the fixed-budget protocol.  For each
 * tunable target this harness composes the soft SKU twice — once with
 * the paper's fixed per-comparison protocol, once with the racing
 * best-arm engine — and enforces two invariants, not just reports:
 *
 *   1. Winner parity: racing must compose knob-for-knob the SAME soft
 *      SKU as the fixed protocol.  Early stopping is an efficiency
 *      feature; changing the science would make it worthless.
 *   2. Determinism: the race-mode report must be byte-identical
 *      between --jobs 1 and --jobs N.
 *
 * It then records the economics: live A/B samples per composed SKU
 * against (a) the paper's fixed per-comparison budget and (b) the
 * fixed protocol's own early-stopping actuals, plus cold wall time.
 * `--json-out=FILE` dumps the numbers for BENCH_adaptive_search.json.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hh"
#include "core/usku.hh"
#include "util/json.hh"
#include "util/thread_pool.hh"

using namespace softsku;
using namespace softsku::bench;

namespace {

struct Target
{
    const char *service;
    const char *platform;
};

struct ModeRun
{
    UskuReport report;
    double wallSec = 0.0;
};

ModeRun
tune(const Target &target, const SimOptions &opts, SearchMode search,
     unsigned jobs)
{
    auto t0 = std::chrono::steady_clock::now();
    ProductionEnvironment env(serviceByName(target.service),
                              platformByName(target.platform),
                              opts.seed, opts);
    InputSpec spec;
    spec.microservice = target.service;
    spec.platform = target.platform;
    spec.seed = opts.seed;
    spec.search = search;
    spec.normalize();

    UskuOptions options;
    options.jobs = jobs;
    Usku tool(env, options);
    ModeRun run;
    run.report = tool.run(spec);
    run.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return run;
}

/** Live samples paid across all non-baseline sweep arms. */
std::uint64_t
samplesPaid(const UskuReport &report)
{
    std::uint64_t paid = 0;
    for (const KnobSweep &sweep : report.map.sweeps)
        for (const KnobOutcome &outcome : sweep.outcomes)
            if (!outcome.isBaseline)
                paid += outcome.samples;
    return paid;
}

std::uint64_t
armCount(const UskuReport &report)
{
    std::uint64_t arms = 0;
    for (const KnobSweep &sweep : report.map.sweeps)
        for (const KnobOutcome &outcome : sweep.outcomes)
            if (!outcome.isBaseline)
                arms += 1;
    return arms;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    printBanner("Adaptive search",
                "best-arm racing vs the fixed-budget A/B protocol");

    SimOptions opts = defaultSimOptions(args);
    const unsigned jobs = args.getJobs(ThreadPool::hardwareThreads());

    // The MIPS-tunable targets (cache1/2 are untunable by design:
    // their profiles reject MIPS as a throughput proxy).  One per
    // service keeps the smoke under a minute; the test-suite matrix
    // (UskuRace.WinnerMatchesFixedOnEveryTunableServicePlatform)
    // covers every service x platform pair.
    const Target targets[] = {
        {"web", "skylake18"},
        {"feed1", "broadwell16"},
        {"feed2", "skylake18"},
        {"ads1", "broadwell16"},
        {"ads2", "skylake18"},
    };

    TextTable table;
    table.header({"target", "soft SKU (race)", "parity", "arms",
                  "budget", "fixed paid", "race paid", "vs budget",
                  "vs fixed", "wall fixed", "wall race"});

    Json rows = Json::array();
    std::uint64_t totalBudget = 0;
    std::uint64_t totalFixed = 0;
    std::uint64_t totalRace = 0;
    bool failed = false;

    for (const Target &target : targets) {
        ModeRun fixed = tune(target, opts, SearchMode::Fixed, jobs);
        ModeRun race = tune(target, opts, SearchMode::Race, jobs);

        // Invariant 1: early stopping never changes the winner.
        bool parity = race.report.softSku == fixed.report.softSku;
        if (!parity) {
            std::fprintf(stderr,
                         "FATAL: %s/%s race composed %s but fixed "
                         "composed %s\n",
                         target.service, target.platform,
                         race.report.softSku.describe().c_str(),
                         fixed.report.softSku.describe().c_str());
            failed = true;
        }

        // Invariant 2: byte-identical replay at any thread count.
        if (jobs > 1) {
            ModeRun serial = tune(target, opts, SearchMode::Race, 1);
            if (serial.report.toJson().dump(2) !=
                race.report.toJson().dump(2)) {
                std::fprintf(stderr,
                             "FATAL: %s/%s race report differs "
                             "between --jobs 1 and --jobs %u\n",
                             target.service, target.platform, jobs);
                failed = true;
            }
        }

        std::uint64_t arms = armCount(race.report);
        std::uint64_t budget =
            arms * race.report.spec.maxSamplesPerTest;
        std::uint64_t fixedPaid = samplesPaid(fixed.report);
        std::uint64_t racePaid = samplesPaid(race.report);
        totalBudget += budget;
        totalFixed += fixedPaid;
        totalRace += racePaid;

        table.row({format("%s/%s", target.service, target.platform),
                   race.report.softSku.describe(),
                   parity ? "match" : "MISMATCH",
                   format("%llu", (unsigned long long)arms),
                   format("%llu", (unsigned long long)budget),
                   format("%llu", (unsigned long long)fixedPaid),
                   format("%llu", (unsigned long long)racePaid),
                   format("%.1fx", budget / double(racePaid)),
                   format("%.2fx", fixedPaid / double(racePaid)),
                   format("%.1fs", fixed.wallSec),
                   format("%.1fs", race.wallSec)});

        Json row = Json::object();
        row.set("service", Json(target.service));
        row.set("platform", Json(target.platform));
        row.set("soft_sku", Json(race.report.softSku.describe()));
        row.set("winner_parity", Json(parity));
        row.set("arms", Json(arms));
        row.set("paper_budget_samples", Json(budget));
        row.set("fixed_paid_samples", Json(fixedPaid));
        row.set("race_paid_samples", Json(racePaid));
        row.set("savings_vs_budget", Json(budget / double(racePaid)));
        row.set("savings_vs_fixed", Json(fixedPaid / double(racePaid)));
        row.set("cold_wall_sec_fixed", Json(fixed.wallSec));
        row.set("cold_wall_sec_race", Json(race.wallSec));
        rows.push(std::move(row));
    }

    std::fputs(table.render().c_str(), stdout);
    note("aggregate: budget %llu, fixed paid %llu, race paid %llu "
         "(%.1fx vs budget, %.2fx vs fixed actuals)",
         (unsigned long long)totalBudget,
         (unsigned long long)totalFixed,
         (unsigned long long)totalRace,
         totalBudget / double(totalRace),
         totalFixed / double(totalRace));
    note("paper framing: a fixed ~30k-sample budget per paired "
         "comparison; racing composes the same SKU for the samples "
         "above (>=5x less than the budget on every target)");

    // The >=5x acceptance is against the paper's fixed per-comparison
    // budget; enforce it here so the smoke fails loudly on regression.
    if (totalRace * 5 > totalBudget) {
        std::fprintf(stderr,
                     "FATAL: aggregate race samples %llu exceed 1/5 of "
                     "the fixed budget %llu\n",
                     (unsigned long long)totalRace,
                     (unsigned long long)totalBudget);
        failed = true;
    }

    const std::string jsonOut = args.get("json-out");
    if (!jsonOut.empty()) {
        Json doc = Json::object();
        doc.set("bench", Json("adaptive_search"));
        doc.set("seed", Json(static_cast<std::uint64_t>(opts.seed)));
        doc.set("warmup_instructions",
                Json(static_cast<std::uint64_t>(
                    opts.warmupInstructions)));
        doc.set("measure_instructions",
                Json(static_cast<std::uint64_t>(
                    opts.measureInstructions)));
        doc.set("targets", std::move(rows));
        Json aggregate = Json::object();
        aggregate.set("paper_budget_samples", Json(totalBudget));
        aggregate.set("fixed_paid_samples", Json(totalFixed));
        aggregate.set("race_paid_samples", Json(totalRace));
        aggregate.set("savings_vs_budget",
                      Json(totalBudget / double(totalRace)));
        aggregate.set("savings_vs_fixed",
                      Json(totalFixed / double(totalRace)));
        doc.set("aggregate", std::move(aggregate));
        writeJsonOut(jsonOut, doc);
    }

    return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
