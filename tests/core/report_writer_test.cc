/** @file Tests for the Markdown report writer. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/report_writer.hh"
#include "services/services.hh"

namespace softsku {
namespace {

UskuReport
smallReport()
{
    SimOptions opts;
    opts.warmupInstructions = 150'000;
    opts.measureInstructions = 200'000;
    static ProductionEnvironment env(webProfile(), skylake18(), 1, opts);
    InputSpec spec;
    spec.microservice = "web";
    spec.platform = "skylake18";
    spec.knobs = {KnobId::Thp};
    spec.validationDurationSec = 3 * 3600.0;
    spec.normalize();
    Usku tool(env);
    return tool.run(spec);
}

TEST(ReportWriter, MarkdownHasAllSections)
{
    std::string md = renderMarkdownReport(smallReport());
    for (const char *needle :
         {"# μSKU soft-SKU report: web on skylake18",
          "## Configurations", "## Design-space map",
          "## Prolonged validation", "Gain over stock",
          "| thp | THP always |", "baseline"}) {
        EXPECT_NE(md.find(needle), std::string::npos) << needle;
    }
}

TEST(ReportWriter, WritesFile)
{
    std::string path = testing::TempDir() + "usku_report.md";
    writeMarkdownReport(smallReport(), path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("soft-SKU report"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ReportWriterDeathTest, UnwritablePathIsFatal)
{
    EXPECT_EXIT(writeMarkdownReport(smallReport(),
                                    "/nonexistent-dir/report.md"),
                testing::ExitedWithCode(1), "cannot write report");
}

TEST(ReportWriter, TargetReportFileNameIsStableAndLowercased)
{
    EXPECT_EQ(targetReportFileName("web", "skylake18"),
              "web.skylake18.v" +
                  std::to_string(kReportSchemaVersion) + ".json");
    // Service casing normalizes so re-runs of "Web" and "web" land on
    // the same dashboard path.
    EXPECT_EQ(targetReportFileName("Web", "skylake18"),
              targetReportFileName("web", "skylake18"));
}

TEST(ReportWriter, SchemaV2KnobDocsStayReadable)
{
    // Dashboards may replay reports written before the v3 bump; the
    // flat v2 knob layout must keep parsing into the same config.
    auto [v2, ok] = Json::parse(R"({
        "core_freq_ghz": 2.2,
        "uncore_freq_ghz": 1.8,
        "active_cores": 0,
        "cdp": {"enabled": false, "data_ways": 0, "code_ways": 0},
        "prefetcher": "all_on",
        "thp": "always",
        "shp_count": 300
    })");
    ASSERT_TRUE(ok);
    KnobConfig parsed = KnobConfig::fromJson(v2).value();
    KnobConfig want;
    want.shpCount = 300;
    EXPECT_EQ(parsed, want);
    // And re-serializing produces the v3 keyed layout.
    Json v3 = parsed.toJson();
    ASSERT_TRUE(v3.contains("knobs"));
    EXPECT_EQ(KnobConfig::fromJson(v3), parsed);
}

TEST(ReportWriter, ReportJsonOmitsMemoryTierKnobsOnLegacyPlatforms)
{
    // smallReport targets skylake18 (no far tier): no memory-tier keys
    // may leak into any embedded knob config.
    Json doc = smallReport().toJson();
    std::string text = doc.dump(2);
    EXPECT_EQ(text.find("\"mba\""), std::string::npos);
    EXPECT_EQ(text.find("\"tier_policy\""), std::string::npos);
    EXPECT_EQ(text.find("\"far_mem_ratio\""), std::string::npos);
}

TEST(ReportWriter, EmitTargetReportCreatesDirAndWritesJson)
{
    std::string dir = testing::TempDir() + "emit_test_reports";
    Json doc = Json::object();
    doc.set("schema_version", Json(kReportSchemaVersion));
    doc.set("service", Json("web"));

    std::string path = emitTargetReport(dir, "web", "skylake18", doc);
    EXPECT_NE(path.find(targetReportFileName("web", "skylake18")),
              std::string::npos);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("\"service\""), std::string::npos);
    // Round-trips as valid JSON with the same fields.
    auto [parsed, ok] = Json::parse(buffer.str());
    ASSERT_TRUE(ok);
    EXPECT_EQ(parsed.at("service").asString(), "web");
    std::remove(path.c_str());
}

} // namespace
} // namespace softsku
