#include "core/ab_cache.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "util/file.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

std::string
hexBits(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return format("0x%016llx", static_cast<unsigned long long>(bits));
}

bool
bitsFromHex(const std::string &text, double &out)
{
    if (text.size() != 18 || text[0] != '0' || text[1] != 'x')
        return false;
    std::uint64_t bits = 0;
    for (size_t i = 2; i < text.size(); ++i) {
        char c = text[i];
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else
            return false;
        bits = (bits << 4) | digit;
    }
    std::memcpy(&out, &bits, sizeof(out));
    return true;
}

namespace {

Json
statToJson(const RunningStat &stat)
{
    RunningStat::State s = stat.state();
    Json doc = Json::object();
    doc.set("count", Json(static_cast<long long>(s.count)));
    doc.set("mean", Json(hexBits(s.mean)));
    doc.set("m2", Json(hexBits(s.m2)));
    doc.set("min", Json(hexBits(s.min)));
    doc.set("max", Json(hexBits(s.max)));
    return doc;
}

// ---- typed member readers: false when absent or of the wrong type -------

bool
readHex(const Json &node, double &out)
{
    return node.isString() && bitsFromHex(node.asString(), out);
}

bool
readBits(const Json &doc, const char *key, double &out)
{
    const Json *node = doc.find(key);
    return node && readHex(*node, out);
}

bool
readCount(const Json &doc, const char *key, std::uint64_t &out)
{
    // Non-negative and at most 2^53, where a double still counts every
    // integer; the bound also keeps the conversion defined.
    const Json *node = doc.find(key);
    if (!node || !node->isNumber() || !(node->asNumber() >= 0.0) ||
        node->asNumber() > 9007199254740992.0)
        return false;
    out = static_cast<std::uint64_t>(node->asInt());
    return true;
}

bool
readBool(const Json &doc, const char *key, bool &out)
{
    const Json *node = doc.find(key);
    if (!node || !node->isBool())
        return false;
    out = node->asBool();
    return true;
}

bool
readConfig(const Json &doc, const char *key, KnobConfig &out)
{
    const Json *node = doc.find(key);
    std::optional<KnobConfig> config =
        node ? KnobConfig::fromJson(*node) : std::nullopt;
    if (config)
        out = *config;
    return config.has_value();
}

bool
readStat(const Json &doc, const char *key, RunningStat &out)
{
    const Json *node = doc.find(key);
    RunningStat::State s;
    if (!node || !readCount(*node, "count", s.count) ||
        !readBits(*node, "mean", s.mean) || !readBits(*node, "m2", s.m2) ||
        !readBits(*node, "min", s.min) || !readBits(*node, "max", s.max))
        return false;
    out = RunningStat::fromState(s);
    return true;
}

Json
resultToJson(const ABTestResult &result)
{
    Json doc = Json::object();
    doc.set("config_a", result.configA.toJson());
    doc.set("config_b", result.configB.toJson());
    doc.set("samples_a", statToJson(result.samplesA));
    doc.set("samples_b", statToJson(result.samplesB));
    doc.set("paired_diffs", statToJson(result.pairedDiffs));
    Json welch = Json::object();
    welch.set("t", Json(hexBits(result.welch.tStatistic)));
    welch.set("dof", Json(hexBits(result.welch.dof)));
    welch.set("p", Json(hexBits(result.welch.pValue)));
    welch.set("mean_diff", Json(hexBits(result.welch.meanDiff)));
    welch.set("half_width", Json(hexBits(result.welch.diffHalfWidth)));
    welch.set("significant", Json(result.welch.significant));
    doc.set("welch", std::move(welch));
    doc.set("samples_used",
            Json(static_cast<long long>(result.samplesUsed)));
    doc.set("samples_accepted",
            Json(static_cast<long long>(result.samplesAccepted)));
    doc.set("significant", Json(result.significant));
    doc.set("elapsed_sec", Json(hexBits(result.elapsedSec)));
    Json faults = Json::object();
    faults.set("dropped",
               Json(static_cast<long long>(result.faults.samplesDropped)));
    faults.set("corrupted", Json(static_cast<long long>(
                                result.faults.samplesCorrupted)));
    faults.set("rejected", Json(static_cast<long long>(
                               result.faults.samplesRejected)));
    faults.set("crashes",
               Json(static_cast<long long>(result.faults.crashes)));
    faults.set("apply_failures", Json(static_cast<long long>(
                                     result.faults.applyFailures)));
    faults.set("retries",
               Json(static_cast<long long>(result.faults.retries)));
    faults.set("guardrail_aborts", Json(static_cast<long long>(
                                       result.faults.guardrailAborts)));
    faults.set("abandoned",
               Json(static_cast<long long>(result.faults.abandoned)));
    doc.set("faults", std::move(faults));
    doc.set("crashed", Json(result.crashed));
    doc.set("apply_failed", Json(result.applyFailed));
    doc.set("qos_aborted", Json(result.qosAborted));
    return doc;
}

bool
resultFromJson(const Json &doc, ABTestResult &out)
{
    const Json *welch = doc.find("welch");
    const Json *faults = doc.find("faults");
    FaultTelemetry &f = out.faults;
    return welch && faults && readConfig(doc, "config_a", out.configA) &&
           readConfig(doc, "config_b", out.configB) &&
           readStat(doc, "samples_a", out.samplesA) &&
           readStat(doc, "samples_b", out.samplesB) &&
           readStat(doc, "paired_diffs", out.pairedDiffs) &&
           readBits(*welch, "t", out.welch.tStatistic) &&
           readBits(*welch, "dof", out.welch.dof) &&
           readBits(*welch, "p", out.welch.pValue) &&
           readBits(*welch, "mean_diff", out.welch.meanDiff) &&
           readBits(*welch, "half_width", out.welch.diffHalfWidth) &&
           readBool(*welch, "significant", out.welch.significant) &&
           readCount(doc, "samples_used", out.samplesUsed) &&
           readCount(doc, "samples_accepted", out.samplesAccepted) &&
           readBool(doc, "significant", out.significant) &&
           readBits(doc, "elapsed_sec", out.elapsedSec) &&
           readCount(*faults, "dropped", f.samplesDropped) &&
           readCount(*faults, "corrupted", f.samplesCorrupted) &&
           readCount(*faults, "rejected", f.samplesRejected) &&
           readCount(*faults, "crashes", f.crashes) &&
           readCount(*faults, "apply_failures", f.applyFailures) &&
           readCount(*faults, "retries", f.retries) &&
           readCount(*faults, "guardrail_aborts", f.guardrailAborts) &&
           readCount(*faults, "abandoned", f.abandoned) &&
           readBool(doc, "crashed", out.crashed) &&
           readBool(doc, "apply_failed", out.applyFailed) &&
           readBool(doc, "qos_aborted", out.qosAborted);
}

Json
chunkToJson(const ValidationChunk &chunk)
{
    Json doc = Json::object();
    doc.set("diffs", statToJson(chunk.diffs));
    doc.set("ref", statToJson(chunk.refStat));
    Json points = Json::array();
    for (const auto &point : chunk.points) {
        Json triple = Json::array();
        triple.push(Json(hexBits(point[0])));
        triple.push(Json(hexBits(point[1])));
        triple.push(Json(hexBits(point[2])));
        points.push(std::move(triple));
    }
    doc.set("points", std::move(points));
    doc.set("samples", Json(static_cast<long long>(chunk.samples)));
    doc.set("dropped", Json(static_cast<long long>(chunk.dropped)));
    doc.set("rejected", Json(static_cast<long long>(chunk.rejected)));
    return doc;
}

bool
chunkFromJson(const Json &doc, ValidationChunk &out)
{
    const Json *points = doc.find("points");
    if (!points || !points->isArray() || !readStat(doc, "diffs", out.diffs) ||
        !readStat(doc, "ref", out.refStat))
        return false;
    for (const Json &triple : points->elements()) {
        std::array<double, 3> point{};
        if (!triple.isArray() || triple.size() != 3)
            return false;
        for (size_t i = 0; i < 3; ++i)
            if (!readHex(triple.at(i), point[i]))
                return false;
        out.points.push_back(point);
    }
    return readCount(doc, "samples", out.samples) &&
           readCount(doc, "dropped", out.dropped) &&
           readCount(doc, "rejected", out.rejected);
}

} // namespace

std::string
abCacheContext(const ProductionEnvironment &env, const InputSpec &spec,
               const RobustnessPolicy &robust)
{
    // Everything a comparison's outcome depends on besides its key.
    // Doubles print as bit patterns: a context is equal iff the runs
    // are bit-for-bit interchangeable.
    const SimOptions &sim = env.simOptions();
    const EnvironmentNoise &noise = env.noise();
    const FaultPlan &plan = env.faults();
    std::string out;
    out += format("schema=%d", kAbCacheSchemaVersion);
    out += format(" service=%s platform=%s seed=%llu",
                  env.profile().name.c_str(),
                  env.platform().name.c_str(),
                  static_cast<unsigned long long>(env.seed()));
    out += format(" sim=%llu/%llu/%llu/%d/%d/%d",
                  static_cast<unsigned long long>(sim.warmupInstructions),
                  static_cast<unsigned long long>(
                      sim.measureInstructions),
                  static_cast<unsigned long long>(sim.seed), sim.catWays,
                  sim.llcLru ? 1 : 0, sim.disableInterference ? 1 : 0);
    out += format(" noise=%s/%s/%s/%s",
                  hexBits(noise.diurnalAmplitude).c_str(),
                  hexBits(noise.measurementSigma).c_str(),
                  hexBits(noise.codePushSigma).c_str(),
                  hexBits(noise.codePushIntervalSec).c_str());
    out += format(" stats=%s/%llu/%llu/%llu/%s",
                  hexBits(spec.confidence).c_str(),
                  static_cast<unsigned long long>(spec.maxSamplesPerTest),
                  static_cast<unsigned long long>(spec.minSamplesPerTest),
                  static_cast<unsigned long long>(spec.warmupSamples),
                  hexBits(spec.sampleSpacingSec).c_str());
    out += format(" robust=%d/%d/%s/%d/%s", robust.maxRetries,
                  robust.robustFilter ? 1 : 0,
                  hexBits(robust.madCutoff).c_str(),
                  robust.qosGuardrail ? 1 : 0,
                  hexBits(robust.minPeakQpsFraction).c_str());
    out += format(" faults=%s/%s/%s/%s/%s/%s/%s/%s/%s/%s/%s seed=%llu",
                  hexBits(plan.crashPerHour).c_str(),
                  hexBits(plan.sampleDropRate).c_str(),
                  hexBits(plan.sampleCorruptRate).c_str(),
                  hexBits(plan.corruptSpikeFactor).c_str(),
                  hexBits(plan.surgeWindowRate).c_str(),
                  hexBits(plan.surgeMagnitude).c_str(),
                  hexBits(plan.surgeWindowSec).c_str(),
                  hexBits(plan.configApplyFailRate).c_str(),
                  hexBits(plan.stuckRebootRate).c_str(),
                  hexBits(plan.stuckRebootExtraSec).c_str(),
                  hexBits(plan.replacementPerfMin).c_str(),
                  static_cast<unsigned long long>(env.faultSeed()));
    // Adaptive-search runs key their entries by chunk, so their files
    // must never mix with fixed-budget files.  Appended only when
    // active: fixed-mode contexts keep their historical spelling.
    if (spec.search != SearchMode::Fixed) {
        out += format(" search=%s/%llu",
                      searchModeName(spec.search).c_str(),
                      static_cast<unsigned long long>(
                          spec.raceChunkSamples));
    }
    return out;
}

std::string
abCacheFilePath(const std::string &dir, const std::string &context)
{
    return dir +
           format("/abcache-%016llx.json",
                  static_cast<unsigned long long>(fnv1a64(context)));
}

std::size_t
loadAbCache(const std::string &dir, const std::string &context,
            std::unordered_map<std::string, ABTestResult> &into,
            ValidationCache *validation)
{
    const std::string path = abCacheFilePath(dir, context);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;  // clean miss: nothing persisted for this context yet
    std::ostringstream buffer;
    buffer << in.rdbuf();

    std::string error;
    auto [doc, ok] = Json::parse(buffer.str(), &error);
    if (!ok || !doc.isObject()) {
        warn("ab cache: ignoring malformed %s (%s)", path.c_str(),
             error.c_str());
        return 0;
    }
    const Json *version = doc.find("schema_version");
    if (!version || !version->isNumber() ||
        version->asNumber() != kAbCacheSchemaVersion) {
        warn("ab cache: ignoring %s (schema mismatch)", path.c_str());
        return 0;
    }
    // The full context is verified verbatim: the filename hash only
    // routes; it never authorizes a replay.
    const Json *stored = doc.find("context");
    if (!stored || !stored->isString() || stored->asString() != context) {
        warn("ab cache: ignoring %s (context mismatch)", path.c_str());
        return 0;
    }
    const Json *entries = doc.find("entries");
    if (!entries || !entries->isObject()) {
        warn("ab cache: ignoring %s (no entries)", path.c_str());
        return 0;
    }
    std::size_t added = 0;
    for (const auto &[key, value] : entries->members()) {
        if (into.count(key))
            continue;
        ABTestResult result;
        if (!resultFromJson(value, result)) {
            warn("ab cache: skipping malformed entry '%s' in %s",
                 key.c_str(), path.c_str());
            continue;
        }
        into.emplace(key, std::move(result));
        ++added;
    }
    const Json *chunks = validation ? doc.find("validation") : nullptr;
    if (chunks && chunks->isObject()) {
        for (const auto &[key, value] : chunks->members()) {
            if (validation->count(key))
                continue;
            ValidationChunk chunk;
            if (!chunkFromJson(value, chunk)) {
                warn("ab cache: skipping malformed validation chunk "
                     "'%s' in %s", key.c_str(), path.c_str());
                continue;
            }
            validation->emplace(key, std::move(chunk));
        }
    }
    return added;
}

bool
storeAbCache(const std::string &dir, const std::string &context,
             const std::unordered_map<std::string, ABTestResult> &memo,
             const ValidationCache *validation)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("ab cache: cannot create %s (%s)", dir.c_str(),
             ec.message().c_str());
        return false;
    }

    // Sorted keys: the file bytes are a pure function of the contents.
    std::vector<const std::string *> keys;
    keys.reserve(memo.size());
    for (const auto &[key, result] : memo)
        keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const std::string *a, const std::string *b) {
                  return *a < *b;
              });

    Json entries = Json::object();
    for (const std::string *key : keys)
        entries.set(*key, resultToJson(memo.at(*key)));
    Json doc = Json::object();
    doc.set("schema_version", Json(kAbCacheSchemaVersion));
    doc.set("context", Json(context));
    doc.set("entries", std::move(entries));
    if (validation && !validation->empty()) {
        std::vector<const std::string *> chunkKeys;
        chunkKeys.reserve(validation->size());
        for (const auto &[key, chunk] : *validation)
            chunkKeys.push_back(&key);
        std::sort(chunkKeys.begin(), chunkKeys.end(),
                  [](const std::string *a, const std::string *b) {
                      return *a < *b;
                  });
        Json chunks = Json::object();
        for (const std::string *key : chunkKeys)
            chunks.set(*key, chunkToJson(validation->at(*key)));
        doc.set("validation", std::move(chunks));
    }

    const std::string path = abCacheFilePath(dir, context);
    if (!writeFileAtomic(path, doc.dump(1) + "\n")) {
        warn("ab cache: cannot write %s", path.c_str());
        return false;
    }
    return true;
}

} // namespace softsku
