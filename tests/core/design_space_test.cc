/** @file Tests for knob domains, applicability, and the input spec. */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/configurator.hh"
#include "core/design_space.hh"
#include "core/input_spec.hh"
#include "services/services.hh"
#include "util/json.hh"

namespace softsku {
namespace {

TEST(DesignSpace, DomainsMatchPaperSweeps)
{
    auto core = knobDomain(KnobId::CoreFrequency, skylake18(),
                           webProfile());
    ASSERT_EQ(core.size(), 7u);   // 1.6..2.2 by 0.1
    EXPECT_DOUBLE_EQ(core.front().number, 1.6);
    EXPECT_DOUBLE_EQ(core.back().number, 2.2);

    // AVX cap: Ads1 tops out at 2.0.
    auto coreAds = knobDomain(KnobId::CoreFrequency, skylake18(),
                              ads1Profile());
    EXPECT_DOUBLE_EQ(coreAds.back().number, 2.0);

    auto uncore = knobDomain(KnobId::UncoreFrequency, skylake18(),
                             webProfile());
    ASSERT_EQ(uncore.size(), 5u);

    auto cdp = knobDomain(KnobId::Cdp, skylake18(), webProfile());
    EXPECT_EQ(cdp.size(), 11u);   // off + 10 splits of 11 ways
    EXPECT_FALSE(cdp.front().cdp.enabled);
    EXPECT_EQ(cdp.back().cdp.dataWays, 10);

    auto shp = knobDomain(KnobId::Shp, skylake18(), webProfile());
    ASSERT_EQ(shp.size(), 7u);   // 0..600 by 100
    EXPECT_DOUBLE_EQ(shp.back().number, 600);

    EXPECT_EQ(knobDomain(KnobId::Prefetcher, skylake18(),
                         webProfile()).size(), 5u);
    EXPECT_EQ(knobDomain(KnobId::Thp, skylake18(), webProfile()).size(),
              3u);

    auto cores = knobDomain(KnobId::CoreCount, skylake18(), webProfile());
    EXPECT_DOUBLE_EQ(cores.front().number, 2);
    EXPECT_DOUBLE_EQ(cores.back().number, 18);
}

TEST(DesignSpace, ApplicabilityRules)
{
    std::string reason;
    // Ads1: no SHP API use and no reboot tolerance.
    EXPECT_FALSE(knobApplicable(KnobId::Shp, skylake18(), ads1Profile(),
                                &reason));
    EXPECT_FALSE(knobApplicable(KnobId::CoreCount, skylake18(),
                                ads1Profile(), &reason));
    EXPECT_NE(reason.find("reboot"), std::string::npos);
    // Non-reboot knobs stay applicable.
    EXPECT_TRUE(knobApplicable(KnobId::Thp, skylake18(), ads1Profile()));
    EXPECT_TRUE(knobApplicable(KnobId::Cdp, skylake18(), ads1Profile()));
    // The memory-tier knobs exist only on far-memory platforms.
    for (KnobId id :
         {KnobId::Mba, KnobId::TierPolicyKnob, KnobId::FarMemRatio}) {
        EXPECT_FALSE(knobApplicable(id, skylake18(), webProfile(),
                                    &reason));
        EXPECT_NE(reason.find("far-memory"), std::string::npos);
        EXPECT_TRUE(knobApplicable(id, skylake18cxl(), webProfile()));
    }
    // Web on a far-memory platform can sweep everything.
    for (KnobId id : allKnobIds())
        EXPECT_TRUE(knobApplicable(id, skylake18cxl(), webProfile()));
}

TEST(DesignSpace, KnobValueApplyAndExtract)
{
    KnobConfig config;
    for (KnobId id : allKnobIds()) {
        for (const KnobValue &value :
             knobDomain(id, skylake18(), webProfile())) {
            KnobConfig modified = config;
            value.applyTo(modified);
            KnobValue extracted = KnobValue::fromConfig(id, modified);
            KnobConfig roundTrip = config;
            extracted.applyTo(roundTrip);
            EXPECT_EQ(roundTrip, modified) << value.label;
        }
    }
}

TEST(Configurator, FiltersInapplicableKnobs)
{
    InputSpec spec;
    spec.microservice = "ads1";
    spec.platform = "skylake18";
    spec.normalize();
    TestPlan plan = buildTestPlan(spec, skylake18(), ads1Profile());
    EXPECT_EQ(plan.knobs.size(), 5u);      // 7 minus core_count and shp
    EXPECT_EQ(plan.skipped.size(), 2u);
    for (const KnobPlan &knobPlan : plan.knobs) {
        EXPECT_NE(knobPlan.id, KnobId::Shp);
        EXPECT_NE(knobPlan.id, KnobId::CoreCount);
    }
    EXPECT_GT(plan.totalCandidates(), 20u);
}

TEST(ConfiguratorDeathTest, RefusesMipsInvalidServices)
{
    InputSpec spec;
    spec.microservice = "cache1";
    spec.platform = "skylake20";
    spec.normalize();
    EXPECT_EXIT(buildTestPlan(spec, skylake20(), cache1Profile()),
                testing::ExitedWithCode(1), "not a valid throughput");
}

TEST(InputSpec, JsonRoundTrip)
{
    InputSpec spec;
    spec.microservice = "web";
    spec.platform = "skylake18";
    spec.sweep = SweepMode::HillClimb;
    spec.knobs = {KnobId::Cdp, KnobId::Thp};
    spec.confidence = 0.99;
    spec.maxSamplesPerTest = 5000;
    spec.seed = 77;

    InputSpec parsed = InputSpec::fromJson(spec.toJson());
    EXPECT_EQ(parsed.microservice, "web");
    EXPECT_EQ(parsed.sweep, SweepMode::HillClimb);
    ASSERT_EQ(parsed.knobs.size(), 2u);
    EXPECT_EQ(parsed.knobs[1], KnobId::Thp);
    EXPECT_DOUBLE_EQ(parsed.confidence, 0.99);
    EXPECT_EQ(parsed.seed, 77u);
}

TEST(InputSpec, ParseFromText)
{
    InputSpec spec = InputSpec::parse(R"({
        "microservice": "web",
        "platform": "skylake18",
        "sweep": {"mode": "independent", "knobs": ["thp", "shp"]}
    })");
    EXPECT_EQ(spec.microservice, "web");
    ASSERT_EQ(spec.knobs.size(), 2u);
    EXPECT_EQ(spec.knobs[0], KnobId::Thp);
}

TEST(InputSpecDeathTest, MalformedInputsFatal)
{
    EXPECT_EXIT(InputSpec::parse("{nope"), testing::ExitedWithCode(1),
                "input file");
    InputSpec spec;
    spec.platform = "skylake18";
    EXPECT_EXIT(spec.validate(), testing::ExitedWithCode(1),
                "microservice");
    spec.microservice = "web";
    spec.confidence = 1.5;
    EXPECT_EXIT(spec.validate(), testing::ExitedWithCode(1), "confidence");
}

/** A spec whose every serialized member differs from its default. */
InputSpec
fullSpec()
{
    InputSpec spec;
    spec.microservice = "web";
    spec.platform = "skylake18";
    spec.sweep = SweepMode::HillClimb;
    spec.knobs = {KnobId::Cdp, KnobId::Thp};
    spec.confidence = 0.99;
    spec.maxSamplesPerTest = 5000;
    spec.minSamplesPerTest = 300;
    spec.warmupSamples = 50;
    spec.sampleSpacingSec = 2.0;
    spec.validationDurationSec = 7200.0;
    spec.seed = 77;
    spec.search = SearchMode::Halving;
    spec.raceChunkSamples = 250;
    return spec;
}

/** @p doc with @p path ("key" or "sweep.key") set to @p value, or
 *  removed when @p value is null. */
Json
withMember(const Json &doc, const std::string &path, const Json *value)
{
    std::size_t dot = path.find('.');
    std::string key = path.substr(0, dot);
    Json out = Json::object();
    for (const auto &[name, member] : doc.members()) {
        if (name != key)
            out.set(name, member);
        else if (dot != std::string::npos)
            out.set(name, withMember(member, path.substr(dot + 1), value));
        else if (value)
            out.set(name, *value);
    }
    if (value && !doc.contains(key))
        out.set(key, *value);
    return out;
}

/** Every member of the input document, with its JSON type. */
const std::vector<std::pair<std::string, Json::Type>> &
specMembers()
{
    static const std::vector<std::pair<std::string, Json::Type>> members =
        {{"microservice", Json::Type::String},
         {"platform", Json::Type::String},
         {"sweep", Json::Type::Object},
         {"sweep.mode", Json::Type::String},
         {"sweep.knobs", Json::Type::Array},
         {"confidence", Json::Type::Number},
         {"max_samples", Json::Type::Number},
         {"min_samples", Json::Type::Number},
         {"warmup_samples", Json::Type::Number},
         {"sample_spacing_sec", Json::Type::Number},
         {"validation_duration_sec", Json::Type::Number},
         {"seed", Json::Type::Number},
         {"search", Json::Type::String},
         {"race_chunk_samples", Json::Type::Number}};
    return members;
}

TEST(InputSpec, DeletedMembersKeepTheirDefaults)
{
    const InputSpec full = fullSpec();
    const InputSpec defaults;
    // What deleting each optional member must leave: the full spec
    // with just that field back at its default.
    const std::vector<std::pair<std::string,
                                std::function<void(InputSpec &)>>>
        resets = {
            {"sweep",
             [&](InputSpec &s) {
                 s.sweep = defaults.sweep;
                 s.knobs.clear();
             }},
            {"sweep.mode", [&](InputSpec &s) { s.sweep = defaults.sweep; }},
            {"sweep.knobs", [&](InputSpec &s) { s.knobs.clear(); }},
            {"confidence",
             [&](InputSpec &s) { s.confidence = defaults.confidence; }},
            {"max_samples",
             [&](InputSpec &s) {
                 s.maxSamplesPerTest = defaults.maxSamplesPerTest;
             }},
            {"min_samples",
             [&](InputSpec &s) {
                 s.minSamplesPerTest = defaults.minSamplesPerTest;
             }},
            {"warmup_samples",
             [&](InputSpec &s) { s.warmupSamples = defaults.warmupSamples; }},
            {"sample_spacing_sec",
             [&](InputSpec &s) {
                 s.sampleSpacingSec = defaults.sampleSpacingSec;
             }},
            {"validation_duration_sec",
             [&](InputSpec &s) {
                 s.validationDurationSec = defaults.validationDurationSec;
             }},
            {"seed", [&](InputSpec &s) { s.seed = defaults.seed; }},
            {"search", [&](InputSpec &s) { s.search = defaults.search; }},
            {"race_chunk_samples",
             [&](InputSpec &s) {
                 s.raceChunkSamples = defaults.raceChunkSamples;
             }},
        };
    const Json doc = full.toJson();
    for (const auto &[path, reset] : resets) {
        InputSpec expected = full;
        reset(expected);
        expected.normalize();
        InputSpec parsed = InputSpec::fromJson(withMember(doc, path, nullptr));
        EXPECT_EQ(parsed.toJson().dump(), expected.toJson().dump()) << path;
        EXPECT_EQ(parsed.search, expected.search) << path;
        EXPECT_EQ(parsed.raceChunkSamples, expected.raceChunkSamples)
            << path;
    }
}

TEST(InputSpecDeathTest, WronglyTypedMembersFail)
{
    const Json doc = fullSpec().toJson();
    Json array = Json::array();
    array.push(Json("thp"));
    const std::vector<Json> samples = {Json(), Json(true), Json(1.0),
                                       Json("x"), array, Json::object()};
    for (const auto &[path, type] : specMembers()) {
        std::string key = path.substr(path.find('.') + 1);
        for (const Json &value : samples) {
            if (value.type() == type)
                continue;
            EXPECT_EXIT(InputSpec::fromJson(withMember(doc, path, &value)),
                        testing::ExitedWithCode(1), "'" + key + "' must be")
                << path;
        }
    }
    // The document itself, and each knob name, are typed too.
    EXPECT_EXIT(InputSpec::fromJson(array), testing::ExitedWithCode(1),
                "JSON object");
    Json knobs = Json::array();
    knobs.push(Json(7.0));
    EXPECT_EXIT(InputSpec::fromJson(withMember(doc, "sweep.knobs", &knobs)),
                testing::ExitedWithCode(1), "knob names");
    // Required members have no default to fall back on.
    EXPECT_EXIT(InputSpec::fromJson(withMember(doc, "microservice", nullptr)),
                testing::ExitedWithCode(1), "required");
    EXPECT_EXIT(InputSpec::fromJson(withMember(doc, "platform", nullptr)),
                testing::ExitedWithCode(1), "required");
}

TEST(InputSpecDeathTest, CountsMustBeExactIntegers)
{
    const Json doc = fullSpec().toJson();
    const char *counts[] = {"max_samples", "min_samples", "warmup_samples",
                            "seed", "race_chunk_samples"};
    for (const char *key : counts) {
        for (double bad : {-1.0, 1.5, 9007199254740994.0}) {
            Json value(bad);
            EXPECT_EXIT(InputSpec::fromJson(withMember(doc, key, &value)),
                        testing::ExitedWithCode(1), "must be an integer")
                << key << " = " << bad;
        }
    }
    // 2^53 itself is the largest count a JSON number holds exactly.
    Json top(9007199254740992.0);
    EXPECT_EQ(InputSpec::fromJson(withMember(doc, "seed", &top)).seed,
              std::uint64_t(1) << 53);
}

TEST(InputSpec, NormalizeFillsAllKnobs)
{
    InputSpec spec;
    spec.microservice = "web";
    spec.platform = "skylake18";
    spec.normalize();
    // Platform-gated knobs do not exist here: the legacy seven only.
    EXPECT_EQ(spec.knobs.size(), 7u);

    InputSpec cxl;
    cxl.microservice = "web";
    cxl.platform = "skylake18cxl";
    cxl.normalize();
    EXPECT_EQ(cxl.knobs.size(), 10u);

    // Unknown platforms fall back to the ungated set; the platform
    // lookup itself reports the error later.
    InputSpec unknown;
    unknown.microservice = "web";
    unknown.platform = "epyc";
    unknown.normalize();
    EXPECT_EQ(unknown.knobs.size(), 7u);
}

} // namespace
} // namespace softsku
