/**
 * @file
 * Golden-file regression tests for the μSKU report: the serialized
 * JSON and the human-readable summary of a fixed, fully deterministic
 * run are compared byte-for-byte against reference files under
 * tests/data/.  Any change to the report schema, the summary wording,
 * or the sweep results shows up as a readable diff in the test log.
 *
 * Regenerating the goldens after an intentional change:
 *
 *     SOFTSKU_UPDATE_GOLDENS=1 ./test_core --gtest_filter='UskuGolden.*'
 *
 * then review the diff of tests/data/ before committing it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/usku.hh"
#include "services/services.hh"
#include "util/json.hh"

namespace softsku {
namespace {

std::string
goldenPath(const std::string &name)
{
    return std::string(SOFTSKU_TEST_DATA_DIR) + "/" + name;
}

bool
updateGoldens()
{
    const char *flag = std::getenv("SOFTSKU_UPDATE_GOLDENS");
    return flag != nullptr && std::string(flag) == "1";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << content;
}

void
compareAgainstGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (updateGoldens()) {
        writeFile(path, actual);
        SUCCEED() << "regenerated " << path;
        return;
    }
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden " << path << "; regenerate with "
        << "SOFTSKU_UPDATE_GOLDENS=1";
    EXPECT_EQ(actual, expected)
        << "report drifted from " << path << "; if the change is "
        << "intentional, regenerate with SOFTSKU_UPDATE_GOLDENS=1 "
        << "and review the diff";
}

/**
 * The fixed run every golden derives from: small but end-to-end.  The
 * adaptive variants add core count to the knobs, because only a core
 * count can trip the QoS guardrail, and run under the moderate fault
 * plan, so their goldens pin the withdrawal and crash paths too.
 */
UskuReport
goldenReport(SearchMode search = SearchMode::Fixed,
             std::vector<KnobId> knobs = {KnobId::Thp, KnobId::Shp},
             const FaultPlan &faults = FaultPlan{},
             std::uint64_t faultSeed = 1)
{
    SimOptions opts;
    opts.warmupInstructions = 150'000;
    opts.measureInstructions = 200'000;
    ProductionEnvironment env(webProfile(), skylake18(), 1, opts);

    InputSpec spec;
    spec.microservice = "web";
    spec.platform = "skylake18";
    spec.sweep = SweepMode::Independent;
    spec.search = search;
    spec.knobs = std::move(knobs);
    spec.seed = 1;
    spec.validationDurationSec = 6 * 3600.0;
    spec.normalize();

    UskuOptions options;
    options.faults = faults;
    options.faultSeed = faultSeed;
    Usku tool(env, options);
    return tool.run(spec);
}

/**
 * One adaptive golden run under the moderate fault plan.  Crashes are
 * rare there (0.02 per measured hour, and a race measures about one
 * hour); fault seed 61 is one under which both searches see one.
 */
UskuReport
hostileReport(SearchMode search)
{
    return goldenReport(search,
                        {KnobId::Thp, KnobId::Shp, KnobId::CoreCount},
                        FaultPlan::fromSpec("moderate"), 61);
}

/** The run must exercise a guardrail withdrawal and a crash, or its
 *  golden would not pin the paths it exists for. */
void
expectWithdrawalsAndCrashes(const UskuReport &report)
{
    EXPECT_GE(report.faults.guardrailAborts, 1u);
    EXPECT_GE(report.faults.crashes, 1u);
}

TEST(UskuGolden, JsonReportMatchesGolden)
{
    compareAgainstGolden("usku_web_skylake18_report.json",
                         goldenReport().toJson().dump(2) + "\n");
}

TEST(UskuGolden, SummaryMatchesGolden)
{
    compareAgainstGolden("usku_web_skylake18_summary.txt",
                         goldenReport().summary());
}

TEST(UskuGolden, HostileRaceReportMatchesGolden)
{
    UskuReport report = hostileReport(SearchMode::Race);
    expectWithdrawalsAndCrashes(report);
    compareAgainstGolden("usku_web_skylake18_race_moderate_report.json",
                         report.toJson().dump(2) + "\n");
}

TEST(UskuGolden, HostileHalvingReportMatchesGolden)
{
    UskuReport report = hostileReport(SearchMode::Halving);
    expectWithdrawalsAndCrashes(report);
    compareAgainstGolden(
        "usku_web_skylake18_halving_moderate_report.json",
        report.toJson().dump(2) + "\n");
}

TEST(UskuGolden, ReportCarriesCurrentSchemaVersion)
{
    // Consumers key their parsers off the top-level schema_version;
    // bumping the schema without bumping the constant (or vice versa)
    // must fail loudly here, not in a downstream dashboard.
    Json doc = goldenReport().toJson();
    ASSERT_TRUE(doc.contains("schema_version"));
    EXPECT_EQ(doc.at("schema_version").asInt(), kReportSchemaVersion);
    // The committed golden agrees, so stale reference files can't mask
    // a version bump.
    const std::string golden =
        readFile(goldenPath("usku_web_skylake18_report.json"));
    if (!golden.empty()) {
        auto [parsed, ok] = Json::parse(golden);
        ASSERT_TRUE(ok);
        EXPECT_EQ(parsed.at("schema_version").asInt(),
                  kReportSchemaVersion);
    }
}

} // namespace
} // namespace softsku
