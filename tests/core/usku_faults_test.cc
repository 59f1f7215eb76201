/**
 * @file
 * Hostile-production tests for the μSKU pipeline: fault injection must
 * be deterministic at any thread count, must not change the composed
 * soft SKU under moderate fault load, must surface its telemetry in
 * the report — and must be a strict no-op when the plan is empty.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/usku.hh"
#include "services/services.hh"

namespace softsku {
namespace {

SimOptions
fastOptions()
{
    SimOptions opts;
    opts.warmupInstructions = 150'000;
    opts.measureInstructions = 200'000;
    return opts;
}

InputSpec
webSpec(std::vector<KnobId> knobs)
{
    InputSpec spec;
    spec.microservice = "web";
    spec.platform = "skylake18";
    spec.sweep = SweepMode::Independent;
    spec.knobs = std::move(knobs);
    spec.validationDurationSec = 6 * 3600.0;
    spec.normalize();
    return spec;
}

/** Full hostile pipeline in a fresh environment. */
UskuReport
runHostile(const InputSpec &spec, const FaultPlan &plan, unsigned jobs,
           std::uint64_t faultSeed = 9)
{
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    env.setFaults(plan, faultSeed);
    UskuOptions options;
    options.jobs = jobs;
    if (plan.any())
        options.robustness = RobustnessPolicy::hostile();
    Usku tool(env, options);
    return tool.run(spec);
}

TEST(UskuFaults, HostileReportIdenticalAcrossThreadCounts)
{
    InputSpec spec = webSpec({KnobId::Thp, KnobId::Shp});
    FaultPlan plan = FaultPlan::fromSpec("moderate");
    std::string serial = runHostile(spec, plan, 1).toJson().dump(2);
    EXPECT_EQ(runHostile(spec, plan, 2).toJson().dump(2), serial);
    EXPECT_EQ(runHostile(spec, plan, 8).toJson().dump(2), serial);
}

TEST(UskuFaults, ModerateFaultsDoNotChangeTheWinner)
{
    InputSpec spec = webSpec({KnobId::Thp, KnobId::Shp});
    UskuReport benign = runHostile(spec, FaultPlan{}, 2);
    UskuReport hostile =
        runHostile(spec, FaultPlan::fromSpec("moderate"), 2);
    EXPECT_EQ(hostile.softSku, benign.softSku);
    EXPECT_TRUE(hostile.validation.stable);
}

TEST(UskuFaults, FaultTelemetrySurfacesInReport)
{
    InputSpec spec = webSpec({KnobId::Thp});
    UskuReport report =
        runHostile(spec, FaultPlan::fromSpec("moderate"), 1);
    EXPECT_TRUE(report.faultPlan.any());
    EXPECT_GT(report.faults.faultsInjected(), 0u);
    // Robust filtering ran: injected spikes/zeros were rejected.
    EXPECT_GT(report.faults.samplesRejected, 0u);
    std::string json = report.toJson().dump(2);
    EXPECT_NE(json.find("\"faults\""), std::string::npos);
    EXPECT_NE(json.find("\"faults_injected\""), std::string::npos);
    EXPECT_NE(report.summary().find("faults ("), std::string::npos);
}

TEST(UskuFaults, BenignReportHasNoFaultSection)
{
    InputSpec spec = webSpec({KnobId::Thp});
    UskuReport report = runHostile(spec, FaultPlan{}, 1);
    std::string json = report.toJson().dump(2);
    EXPECT_EQ(json.find("\"faults\""), std::string::npos);
    EXPECT_EQ(report.summary().find("faults ("), std::string::npos);
}

TEST(UskuFaults, EmptyPlanIsByteIdenticalToUnarmedRun)
{
    // setFaults with an all-zero plan must not move a single bit of
    // the report relative to a tool that never heard about faults.
    InputSpec spec = webSpec({KnobId::Thp, KnobId::Shp});
    ProductionEnvironment unarmed(webProfile(), skylake18(), 1,
                                  fastOptions());
    UskuOptions plainOptions;
    plainOptions.jobs = 2;
    Usku plain(unarmed, plainOptions);
    std::string baseline = plain.run(spec).toJson().dump(2);
    EXPECT_EQ(runHostile(spec, FaultPlan{}, 2).toJson().dump(2),
              baseline);
}

TEST(UskuFaults, SweepCompletesUnderSevereFaults)
{
    InputSpec spec = webSpec({KnobId::Thp});
    UskuReport report =
        runHostile(spec, FaultPlan::fromSpec("severe"), 2);
    // The sweep survives a hostile fleet and still composes a SKU.
    EXPECT_GT(report.configsEvaluated, 0u);
    EXPECT_GT(report.softSkuMips, 0.0);
    EXPECT_GT(report.faults.faultsInjected(), 0u);
}

TEST(UskuFaults, QosGuardrailAbortsCapacityCollapse)
{
    // Halving the active cores collapses the QoS-bounded capacity far
    // below the 70% floor: with the guardrail armed those candidates
    // must be aborted before a single sample is spent — and can never
    // win the sweep.
    InputSpec spec = webSpec({KnobId::CoreCount});
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    UskuOptions options;
    options.jobs = 1;
    options.robustness.qosGuardrail = true;
    Usku tool(env, options);
    UskuReport report = tool.run(spec);
    EXPECT_GT(report.faults.guardrailAborts, 0u);
    EXPECT_EQ(report.softSku.activeCores,
              report.production.activeCores);
}

TEST(UskuFaults, GuardrailAbortsCostNoPricing)
{
    // The guardrail decides before a candidate is priced: every
    // configuration the hostile sweep evaluates is simulated, except
    // the ones it aborts.
    InputSpec spec = webSpec({KnobId::CoreCount, KnobId::Thp});
    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    UskuOptions options;
    options.jobs = 2;
    options.faults = FaultPlan::fromSpec("moderate");
    options.faultSeed = 9;
    Usku tool(env, options);
    UskuReport report = tool.run(spec);
    EXPECT_GT(report.faults.guardrailAborts, 0u);
    EXPECT_EQ(env.configsSimulated(),
              report.configsEvaluated - report.faults.guardrailAborts);
}

} // namespace
} // namespace softsku
