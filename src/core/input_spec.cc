#include "core/input_spec.hh"

#include <cmath>

#include "core/knob_registry.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

SweepMode
sweepModeFromString(const std::string &text)
{
    std::string mode = toLower(text);
    if (mode == "independent")
        return SweepMode::Independent;
    if (mode == "exhaustive")
        return SweepMode::Exhaustive;
    if (mode == "hillclimb" || mode == "hill_climb")
        return SweepMode::HillClimb;
    fatal("unknown sweep mode '%s' (independent, exhaustive, hillclimb)",
          text.c_str());
}

std::string
sweepModeName(SweepMode mode)
{
    switch (mode) {
      case SweepMode::Independent: return "independent";
      case SweepMode::Exhaustive: return "exhaustive";
      case SweepMode::HillClimb: return "hillclimb";
    }
    panic("unreachable sweep mode");
}

void
InputSpec::normalize()
{
    if (!knobs.empty())
        return;
    // Default to every knob the platform offers.  Platform-gated knobs
    // (the memory-tier trio) simply do not exist on platforms without
    // the hardware — they are excluded here, not listed as skipped.
    // Unknown platform names fall back to the ungated set and fail
    // later with the platform lookup's own error.
    const PlatformSpec *spec = platformByNameOrNull(platform);
    for (const KnobDescriptor &d : knobRegistry()) {
        if (d.availableOn && !(spec && d.availableOn(*spec)))
            continue;
        knobs.push_back(d.id);
    }
}

void
InputSpec::applySearchOverrides(const ToolOptions &tool)
{
    if (!tool.search.empty())
        search = searchModeFromString(tool.search);
    if (tool.confidence > 0.0)
        confidence = tool.confidence;
    if (!tool.knobs.empty()) {
        knobs.clear();
        for (const std::string &key : split(tool.knobs, ','))
            knobs.push_back(knobFromKey(std::string(trim(key))));
    }
}

void
InputSpec::validate() const
{
    if (microservice.empty())
        fatal("μSKU input: 'microservice' is required");
    if (platform.empty())
        fatal("μSKU input: 'platform' is required");
    if (confidence <= 0.5 || confidence >= 1.0)
        fatal("μSKU input: confidence %.3f outside (0.5, 1)", confidence);
    if (maxSamplesPerTest < minSamplesPerTest)
        fatal("μSKU input: max samples %llu below min %llu",
              static_cast<unsigned long long>(maxSamplesPerTest),
              static_cast<unsigned long long>(minSamplesPerTest));
    if (sampleSpacingSec <= 0.0)
        fatal("μSKU input: sample spacing must be positive");
    if (raceChunkSamples == 0)
        fatal("μSKU input: race chunk size must be positive");
    if (search != SearchMode::Fixed && raceChunkSamples > maxSamplesPerTest)
        fatal("μSKU input: race chunk %llu exceeds the per-test budget "
              "%llu",
              static_cast<unsigned long long>(raceChunkSamples),
              static_cast<unsigned long long>(maxSamplesPerTest));
}

Json
InputSpec::toJson() const
{
    Json doc = Json::object();
    doc.set("microservice", Json(microservice));
    doc.set("platform", Json(platform));
    Json sweepDoc = Json::object();
    sweepDoc.set("mode", Json(sweepModeName(sweep)));
    Json knobList = Json::array();
    for (KnobId id : knobs)
        knobList.push(Json(knobKey(id)));
    sweepDoc.set("knobs", std::move(knobList));
    doc.set("sweep", std::move(sweepDoc));
    doc.set("confidence", Json(confidence));
    doc.set("max_samples", Json(static_cast<long long>(maxSamplesPerTest)));
    doc.set("min_samples", Json(static_cast<long long>(minSamplesPerTest)));
    doc.set("warmup_samples", Json(static_cast<long long>(warmupSamples)));
    doc.set("sample_spacing_sec", Json(sampleSpacingSec));
    doc.set("validation_duration_sec", Json(validationDurationSec));
    doc.set("seed", Json(static_cast<long long>(seed)));
    // Only emitted when adaptive search is active, so fixed-mode specs
    // (and the reports embedding them) keep their historical bytes.
    if (search != SearchMode::Fixed) {
        doc.set("search", Json(searchModeName(search)));
        doc.set("race_chunk_samples",
                Json(static_cast<long long>(raceChunkSamples)));
    }
    return doc;
}

namespace {

/**
 * Member @p key of the input document, or nullptr when absent.  A
 * member of the wrong JSON type is a malformed input, never a crash:
 * it fails the run with the offending key named.
 */
const Json *
typedMember(const Json &doc, const char *key, Json::Type type,
            const char *typeName)
{
    const Json *member = doc.find(key);
    if (member && member->type() != type)
        fatal("μSKU input: '%s' must be %s", key, typeName);
    return member;
}

std::string
stringOr(const Json &doc, const char *key, const std::string &fallback)
{
    const Json *member =
        typedMember(doc, key, Json::Type::String, "a string");
    return member ? member->asString() : fallback;
}

double
numberOr(const Json &doc, const char *key, double fallback)
{
    const Json *member =
        typedMember(doc, key, Json::Type::Number, "a number");
    return member ? member->asNumber() : fallback;
}

/** A count: an integer in [0, 2^53], the range a JSON number holds
 *  exactly. */
std::uint64_t
countOr(const Json &doc, const char *key, std::uint64_t fallback)
{
    const Json *member =
        typedMember(doc, key, Json::Type::Number, "a number");
    if (!member)
        return fallback;
    double value = member->asNumber();
    if (!(value >= 0.0 && value <= 9007199254740992.0) ||
        value != std::floor(value))
        fatal("μSKU input: '%s' must be an integer in [0, 2^53]", key);
    return static_cast<std::uint64_t>(value);
}

} // namespace

InputSpec
InputSpec::fromJson(const Json &doc)
{
    if (!doc.isObject())
        fatal("μSKU input: the document must be a JSON object");
    InputSpec spec;
    spec.microservice = stringOr(doc, "microservice", "");
    spec.platform = stringOr(doc, "platform", "");
    if (const Json *sweepDoc = typedMember(doc, "sweep", Json::Type::Object,
                                           "an object")) {
        spec.sweep =
            sweepModeFromString(stringOr(*sweepDoc, "mode", "independent"));
        if (const Json *knobs = typedMember(*sweepDoc, "knobs",
                                            Json::Type::Array,
                                            "an array")) {
            for (const Json &knob : knobs->elements()) {
                if (!knob.isString())
                    fatal("μSKU input: 'knobs' must hold knob names");
                spec.knobs.push_back(knobFromKey(knob.asString()));
            }
        }
    }
    spec.confidence = numberOr(doc, "confidence", spec.confidence);
    spec.maxSamplesPerTest =
        countOr(doc, "max_samples", spec.maxSamplesPerTest);
    spec.minSamplesPerTest =
        countOr(doc, "min_samples", spec.minSamplesPerTest);
    spec.warmupSamples = countOr(doc, "warmup_samples", spec.warmupSamples);
    spec.sampleSpacingSec =
        numberOr(doc, "sample_spacing_sec", spec.sampleSpacingSec);
    spec.validationDurationSec = numberOr(doc, "validation_duration_sec",
                                          spec.validationDurationSec);
    spec.seed = countOr(doc, "seed", spec.seed);
    spec.search = searchModeFromString(stringOr(doc, "search", "fixed"));
    spec.raceChunkSamples =
        countOr(doc, "race_chunk_samples", spec.raceChunkSamples);
    spec.normalize();
    spec.validate();
    return spec;
}

InputSpec
InputSpec::parse(const std::string &text)
{
    std::string error;
    auto [doc, ok] = Json::parse(text, &error);
    if (!ok)
        fatal("μSKU input file: %s", error.c_str());
    return fromJson(doc);
}

} // namespace softsku
