/**
 * @file
 * Flight-recorder tracer tests: the deterministic span summary must be
 * byte-identical across worker-thread counts (benign and under a
 * moderate fault plan), span counts must reconcile with the report's
 * own accounting, and the Chrome export must be valid trace_event JSON.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/usku.hh"
#include "obs/trace.hh"
#include "services/services.hh"
#include "util/json.hh"

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
webSpec()
{
    InputSpec spec;
    spec.microservice = "web";
    spec.platform = "skylake18";
    spec.sweep = SweepMode::Independent;
    spec.knobs = {KnobId::Thp, KnobId::Shp};
    spec.validationDurationSec = 6 * 3600.0;
    spec.normalize();
    return spec;
}

struct TracedRun
{
    UskuReport report;
    std::string summary;
    std::vector<SpanRecord> spans;

    std::size_t count(const std::string &name) const
    {
        std::size_t n = 0;
        for (const SpanRecord &span : spans)
            n += span.name == name;
        return n;
    }
};

/** Full pipeline with tracing armed; fresh environment and tracer. */
TracedRun
runTraced(const InputSpec &spec, unsigned jobs, bool faults)
{
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setRunTag(0);
    tracer.enable();

    ProductionEnvironment env(webProfile(), skylake18(), 1,
                              fastOptions());
    UskuOptions options;
    options.jobs = jobs;
    if (faults) {
        env.setFaults(FaultPlan::fromSpec("moderate"), 1);
        options.robustness = RobustnessPolicy::hostile();
    }
    Usku tool(env, options);

    TracedRun run;
    run.report = tool.run(spec);
    tracer.disable();
    run.summary = tracer.deterministicSummary();
    run.spans = tracer.sortedSpans();
    return run;
}

TEST(TraceDeterminism, SummaryIdenticalAcrossThreadCounts)
{
    InputSpec spec = webSpec();
    TracedRun serial = runTraced(spec, 1, false);
    ASSERT_FALSE(serial.summary.empty());
    EXPECT_EQ(runTraced(spec, 2, false).summary, serial.summary);
    EXPECT_EQ(runTraced(spec, 8, false).summary, serial.summary);
}

TEST(TraceDeterminism, SummaryIdenticalUnderModerateFaults)
{
    InputSpec spec = webSpec();
    TracedRun serial = runTraced(spec, 1, true);
    ASSERT_FALSE(serial.summary.empty());
    EXPECT_EQ(runTraced(spec, 2, true).summary, serial.summary);
    EXPECT_EQ(runTraced(spec, 8, true).summary, serial.summary);
}

TEST(Trace, SpanCountsReconcileWithReport)
{
    TracedRun run = runTraced(webSpec(), 8, true);
    const UskuReport &report = run.report;

    // One span per measured comparison, per cache hit, per retry.
    EXPECT_EQ(run.count("sweep.compare"),
              report.abComparisons - report.cacheHits);
    EXPECT_EQ(run.count("sweep.cache_hit"), report.cacheHits);
    EXPECT_EQ(run.count("sweep.retry"), report.faults.retries);
    EXPECT_GT(run.count("ab.measure"), 0u);
    EXPECT_GE(run.count("validate.chunk"), 1u);
    EXPECT_EQ(run.count("usku.run"), 1u);
    // Point events: one cumulative cache-hit counter sample per hit,
    // and a fault instant for every crashed / failed-apply attempt.
    EXPECT_EQ(run.count("sweep.cache_hits_total"), report.cacheHits);
    if (report.faults.crashes + report.faults.applyFailures > 0) {
        EXPECT_GE(run.count("fault.crash") +
                      run.count("fault.apply_failure"),
                  1u);
    }
}

TEST(Trace, ChromeExportIsValidTraceEventJson)
{
    TracedRun run = runTraced(webSpec(), 2, false);
    Tracer &tracer = Tracer::global();

    std::string path = testing::TempDir() + "softsku_trace_test.json";
    ASSERT_TRUE(tracer.writeChromeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();

    std::string error;
    auto [doc, ok] = Json::parse(buffer.str(), &error);
    ASSERT_TRUE(ok) << error;
    ASSERT_TRUE(doc.contains("traceEvents"));
    const Json &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    EXPECT_EQ(events.size(), run.spans.size());
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &event = events.at(i);
        EXPECT_TRUE(event.contains("name"));
        EXPECT_TRUE(event.at("ts").isNumber());
        const std::string ph = event.at("ph").asString();
        if (ph == "X") {
            // Complete span: duration plus the deterministic path.
            EXPECT_TRUE(event.at("dur").isNumber());
            EXPECT_TRUE(event.at("args").contains("path"));
        } else if (ph == "i") {
            // Instant (fault injection, rollback): thread-scoped.
            EXPECT_EQ(event.at("s").asString(), "t");
            EXPECT_TRUE(event.at("args").contains("path"));
        } else if (ph == "C") {
            // Counter sample: numeric value series for Perfetto.
            EXPECT_TRUE(event.at("args").at("value").isNumber());
        } else {
            ADD_FAILURE() << "unexpected phase '" << ph << "'";
        }
    }
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.disable();
    {
        ScopedSpan span("test", "should.not.record");
        span.arg("k", "v");
    }
    EXPECT_EQ(tracer.spanCount(), 0u);
}

TEST(Trace, NestedSpansInheritParentPath)
{
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setRunTag(0);
    tracer.enable();
    {
        ScopedSpan root("test", "root", {kTraceUsku, 7});
        ScopedSpan childA("test", "childA");
        {
            ScopedSpan grand("test", "grandchild");
        }
    }
    tracer.disable();
    std::vector<SpanRecord> spans = tracer.sortedSpans();
    ASSERT_EQ(spans.size(), 3u);
    // Path-sorted: root [0,0,7], childA [0,0,7,1], grandchild
    // [0,0,7,1,1].
    EXPECT_EQ(spans[0].name, "root");
    EXPECT_EQ(spans[0].path, (std::vector<std::uint64_t>{0, 0, 7}));
    EXPECT_EQ(spans[1].name, "childA");
    EXPECT_EQ(spans[1].path, (std::vector<std::uint64_t>{0, 0, 7, 1}));
    EXPECT_EQ(spans[2].name, "grandchild");
    EXPECT_EQ(spans[2].path,
              (std::vector<std::uint64_t>{0, 0, 7, 1, 1}));
    tracer.clear();
}

} // namespace
} // namespace softsku
