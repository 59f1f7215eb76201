/**
 * @file
 * Unit tests for the persistent A/B cache's integrity guarantees: a
 * damaged, stale, or foreign file must always degrade to a clean cold
 * run (never a crash, never a smuggled result), and every double must
 * survive the hex round trip bit-for-bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/ab_cache.hh"
#include "stats/rng.hh"
#include "stats/students_t.hh"
#include "util/strings.hh"

namespace softsku {
namespace {

namespace fs = std::filesystem;

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
fromBits(std::uint64_t bits)
{
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

TEST(AbCacheHex, RoundTripsSpecialValues)
{
    const double specials[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),       // smallest normal
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon(),
        -1.0 / 3.0,
    };
    for (double value : specials) {
        double back = 0.0;
        ASSERT_TRUE(bitsFromHex(hexBits(value), back)) << hexBits(value);
        // Bit equality, not ==: it distinguishes -0 from +0 and holds
        // for NaN.
        EXPECT_EQ(bitsOf(back), bitsOf(value)) << hexBits(value);
    }
}

TEST(AbCacheHex, RoundTripFuzzOverTheFullExponentRange)
{
    Rng rng(1234);
    for (int i = 0; i < 1000; ++i) {
        // Uniform over bit patterns: every exponent, both signs, plenty
        // of denormals/NaN payloads among the draws.
        auto word16 = [&rng]() {
            auto w = static_cast<std::uint64_t>(rng.uniform() * 65536.0);
            return std::min<std::uint64_t>(w, 65535);
        };
        std::uint64_t bits = (word16() << 48) ^ (word16() << 32) ^
                             (word16() << 16) ^ word16();
        double value = fromBits(bits);
        double back = 0.0;
        ASSERT_TRUE(bitsFromHex(hexBits(value), back)) << hexBits(value);
        EXPECT_EQ(bitsOf(back), bits) << hexBits(value);
    }
}

TEST(AbCacheHex, RejectsMalformedText)
{
    double out = 0.0;
    EXPECT_FALSE(bitsFromHex("", out));
    EXPECT_FALSE(bitsFromHex("0x", out));
    EXPECT_FALSE(bitsFromHex("3ff0000000000000", out));    // no prefix
    EXPECT_FALSE(bitsFromHex("0x3ff000000000000", out));   // too short
    EXPECT_FALSE(bitsFromHex("0x3ff00000000000000", out)); // too long
    EXPECT_FALSE(bitsFromHex("0x3FF0000000000000", out));  // uppercase
    EXPECT_FALSE(bitsFromHex("0x3ff000000000000g", out));  // bad digit
}

/** A synthetic measured result with non-trivial statistics. */
ABTestResult
sampleResult(std::uint64_t seed)
{
    Rng rng(seed);
    ABTestResult result;
    for (int i = 0; i < 64; ++i) {
        double a = rng.gaussian(1000.0, 25.0);
        double b = rng.gaussian(1010.0, 25.0);
        result.samplesA.add(a);
        result.samplesB.add(b);
        result.pairedDiffs.add(b / a - 1.0);
        ++result.samplesUsed;
    }
    result.samplesAccepted = result.samplesUsed;
    result.welch = pairedTTest(result.pairedDiffs, 0.95);
    result.significant = result.welch.significant;
    result.elapsedSec = 1920.0;
    return result;
}

struct CacheDir
{
    fs::path dir;
    CacheDir(const char *name)
        : dir(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(dir);
    }
    ~CacheDir() { fs::remove_all(dir); }
};

TEST(AbCachePersist, StoreThenLoadRoundTripsBitForBit)
{
    CacheDir cache("softsku-abcache-roundtrip");
    const std::string context = "schema=2 test-context roundtrip";

    std::unordered_map<std::string, ABTestResult> memo;
    memo.emplace("base vs cand #c0", sampleResult(3));
    memo.emplace("base vs cand #c1", sampleResult(4));

    ValidationCache validation;
    ValidationChunk chunk;
    Rng rng(5);
    for (int i = 0; i < 16; ++i) {
        double ref = rng.gaussian(900.0, 10.0);
        double sku = rng.gaussian(930.0, 10.0);
        chunk.diffs.add(sku / ref - 1.0);
        chunk.refStat.add(ref);
        chunk.points.push_back({i * 30.0, ref, sku});
        ++chunk.samples;
    }
    chunk.dropped = 2;
    chunk.rejected = 1;
    validation.emplace("validate #c0", chunk);

    ASSERT_TRUE(storeAbCache(cache.dir.string(), context, memo,
                             &validation));

    std::unordered_map<std::string, ABTestResult> loaded;
    ValidationCache loadedValidation;
    EXPECT_EQ(loadAbCache(cache.dir.string(), context, loaded,
                          &loadedValidation),
              memo.size());
    ASSERT_EQ(loaded.size(), memo.size());
    for (const auto &[key, result] : memo) {
        ASSERT_TRUE(loaded.count(key)) << key;
        const ABTestResult &got = loaded.at(key);
        EXPECT_EQ(bitsOf(got.pairedDiffs.mean()),
                  bitsOf(result.pairedDiffs.mean()));
        EXPECT_EQ(bitsOf(got.welch.pValue), bitsOf(result.welch.pValue));
        EXPECT_EQ(got.samplesUsed, result.samplesUsed);
        EXPECT_EQ(got.significant, result.significant);
    }
    ASSERT_EQ(loadedValidation.size(), 1u);
    const ValidationChunk &got = loadedValidation.at("validate #c0");
    EXPECT_EQ(bitsOf(got.diffs.mean()), bitsOf(chunk.diffs.mean()));
    EXPECT_EQ(got.points.size(), chunk.points.size());
    EXPECT_EQ(bitsOf(got.points[7][2]), bitsOf(chunk.points[7][2]));
    EXPECT_EQ(got.dropped, 2u);
    EXPECT_EQ(got.rejected, 1u);
}

TEST(AbCachePersist, TruncatedFileIsACleanMiss)
{
    CacheDir cache("softsku-abcache-truncated");
    const std::string context = "schema=2 test-context truncated";

    std::unordered_map<std::string, ABTestResult> memo;
    memo.emplace("base vs cand #c0", sampleResult(6));
    ASSERT_TRUE(storeAbCache(cache.dir.string(), context, memo));

    const std::string path =
        abCacheFilePath(cache.dir.string(), context);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    ASSERT_GT(bytes.size(), 100u);
    // Chop mid-entry: the JSON no longer parses.
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);

    std::unordered_map<std::string, ABTestResult> loaded;
    EXPECT_EQ(loadAbCache(cache.dir.string(), context, loaded), 0u);
    EXPECT_TRUE(loaded.empty());
}

TEST(AbCachePersist, DeeplyNestedFileIsACleanMiss)
{
    CacheDir cache("softsku-abcache-deep");
    const std::string context = "schema=2 test-context deep";

    std::unordered_map<std::string, ABTestResult> memo;
    memo.emplace("base vs cand #c0", sampleResult(8));
    ASSERT_TRUE(storeAbCache(cache.dir.string(), context, memo));

    // A corrupt file of nothing but open brackets must fail the parse,
    // not overflow the parser's stack.
    std::ofstream(abCacheFilePath(cache.dir.string(), context),
                  std::ios::binary)
        << std::string(100000, '[');

    std::unordered_map<std::string, ABTestResult> loaded;
    EXPECT_EQ(loadAbCache(cache.dir.string(), context, loaded), 0u);
    EXPECT_TRUE(loaded.empty());
}

TEST(AbCachePersist, WrongSchemaVersionIsACleanMiss)
{
    CacheDir cache("softsku-abcache-schema");
    const std::string context = "schema=2 test-context schema";

    std::unordered_map<std::string, ABTestResult> memo;
    memo.emplace("base vs cand #c0", sampleResult(7));
    ASSERT_TRUE(storeAbCache(cache.dir.string(), context, memo));

    const std::string path =
        abCacheFilePath(cache.dir.string(), context);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    const std::string tag =
        "\"schema_version\": " + std::to_string(kAbCacheSchemaVersion);
    auto at = bytes.find(tag);
    ASSERT_NE(at, std::string::npos);
    // A version-1 file (or any future version) is ignored with a
    // warning — exactly a cold run, never a parse of foreign layout.
    bytes.replace(at, tag.size(), "\"schema_version\": 1");
    std::ofstream(path, std::ios::binary) << bytes;

    std::unordered_map<std::string, ABTestResult> loaded;
    EXPECT_EQ(loadAbCache(cache.dir.string(), context, loaded), 0u);
    EXPECT_TRUE(loaded.empty());
}

TEST(AbCachePersist, ContextMismatchIsACleanMiss)
{
    CacheDir cache("softsku-abcache-context");
    const std::string context = "schema=2 test-context original";

    std::unordered_map<std::string, ABTestResult> memo;
    memo.emplace("base vs cand #c0", sampleResult(8));
    ASSERT_TRUE(storeAbCache(cache.dir.string(), context, memo));

    // Simulate a filename-hash collision (or a hand-renamed file): the
    // file lands at the path of a *different* context.  The verbatim
    // context check must refuse it.
    const std::string other = "schema=2 test-context other-seed";
    fs::copy_file(abCacheFilePath(cache.dir.string(), context),
                  abCacheFilePath(cache.dir.string(), other));

    std::unordered_map<std::string, ABTestResult> loaded;
    EXPECT_EQ(loadAbCache(cache.dir.string(), other, loaded), 0u);
    EXPECT_TRUE(loaded.empty());
    // The honest context still loads.
    EXPECT_EQ(loadAbCache(cache.dir.string(), context, loaded), 1u);
}

TEST(AbCachePersist, InMemoryResultsAreNeverOverwritten)
{
    CacheDir cache("softsku-abcache-priority");
    const std::string context = "schema=2 test-context priority";

    std::unordered_map<std::string, ABTestResult> memo;
    memo.emplace("base vs cand #c0", sampleResult(9));
    ASSERT_TRUE(storeAbCache(cache.dir.string(), context, memo));

    std::unordered_map<std::string, ABTestResult> loaded;
    ABTestResult live = sampleResult(10);
    loaded.emplace("base vs cand #c0", live);
    // The key already exists in memory: the disk entry must not win.
    EXPECT_EQ(loadAbCache(cache.dir.string(), context, loaded), 0u);
    EXPECT_EQ(bitsOf(loaded.at("base vs cand #c0").pairedDiffs.mean()),
              bitsOf(live.pairedDiffs.mean()));
}

/** One member (or array element) of a JSON document, by path. */
using JsonPath = std::vector<std::string>;

void
collectPaths(const Json &node, JsonPath &prefix, std::vector<JsonPath> &out)
{
    out.push_back(prefix);
    if (node.isObject()) {
        for (const auto &[key, value] : node.members()) {
            prefix.push_back(key);
            collectPaths(value, prefix, out);
            prefix.pop_back();
        }
    } else if (node.isArray()) {
        for (size_t i = 0; i < node.size(); ++i) {
            prefix.push_back(std::to_string(i));
            collectPaths(node.at(i), prefix, out);
            prefix.pop_back();
        }
    }
}

/**
 * A copy of @p node with the node at @p path (non-empty) replaced by
 * @p replacement, or deleted when @p replacement is null.
 */
Json
mutated(const Json &node, const JsonPath &path, size_t depth,
        const Json *replacement)
{
    auto child = [&](const std::string &name, const Json &value,
                     auto &&add) {
        if (name != path[depth])
            add(Json(value));
        else if (depth + 1 < path.size())
            add(mutated(value, path, depth + 1, replacement));
        else if (replacement)
            add(Json(*replacement));
    };
    if (node.isArray()) {
        Json out = Json::array();
        for (size_t i = 0; i < node.size(); ++i)
            child(std::to_string(i), node.at(i),
                  [&](Json v) { out.push(std::move(v)); });
        return out;
    }
    Json out = Json::object();
    for (const auto &[key, value] : node.members())
        child(key, value, [&](Json v) { out.set(key, std::move(v)); });
    return out;
}

std::string
pathName(const JsonPath &path)
{
    std::string name;
    for (const std::string &part : path)
        name += "/" + part;
    return name;
}

/**
 * Every member path of a stored comparison entry, of a validation
 * chunk and of the top-level document is deleted, or given each wrong
 * JSON type in turn.  The loader must never abort, and must keep every
 * entry and chunk the mutation did not touch.
 */
TEST(AbCachePersist, DamagedMembersNeverAbortTheLoader)
{
    CacheDir cache("softsku-abcache-mutation");
    const std::string context = "schema=3 test-context mutation";

    std::unordered_map<std::string, ABTestResult> memo;
    for (std::uint64_t seed : {11, 12, 13}) {
        ABTestResult result = sampleResult(seed);
        // Off-default memory-tier knobs, so every knob's member is
        // stored and mutated.
        result.configB.mbaPercent = 70;
        result.configB.tierPolicy = TierPolicy::Balanced;
        result.configB.farMemRatio = 0.25;
        result.configB.cdp = {true, 6, 5};
        memo.emplace(format("base vs cand #c%llu",
                            static_cast<unsigned long long>(seed)),
                     result);
    }
    ValidationCache validation;
    for (int c = 0; c < 2; ++c) {
        ValidationChunk chunk;
        for (int i = 0; i < 3; ++i) {
            chunk.diffs.add(0.01 * (i + c));
            chunk.refStat.add(900.0 + i);
            chunk.points.push_back({i * 30.0, 900.0 + i, 930.0 + i});
            ++chunk.samples;
        }
        validation.emplace(format("validate #c%d", c), chunk);
    }
    ASSERT_TRUE(storeAbCache(cache.dir.string(), context, memo,
                             &validation));
    const std::string path = abCacheFilePath(cache.dir.string(), context);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    auto [original, ok] = Json::parse(bytes);
    ASSERT_TRUE(ok);

    const std::string entryKey = "base vs cand #c12";
    const std::string chunkKey = "validate #c0";
    std::vector<JsonPath> paths;
    for (JsonPath root : {JsonPath{"entries", entryKey},
                          JsonPath{"validation", chunkKey}}) {
        const Json &node = original.at(root[0]).at(root[1]);
        collectPaths(node, root, paths);
    }
    for (const auto &[key, value] : original.members())
        paths.push_back({key});

    const Json wrongTypes[] = {Json(), Json(true), Json(7), Json("zero"),
                               Json::array(), Json::object()};
    int loads = 0;
    for (const JsonPath &mutatedPath : paths) {
        const Json &target = [&]() -> const Json & {
            const Json *node = &original;
            for (const std::string &part : mutatedPath)
                node = node->isArray()
                           ? &node->at(static_cast<size_t>(
                                 std::stoul(part)))
                           : &node->at(part);
            return *node;
        }();
        std::vector<const Json *> replacements{nullptr};
        for (const Json &wrong : wrongTypes) {
            if (wrong.type() != target.type())
                replacements.push_back(&wrong);
        }
        for (const Json *replacement : replacements) {
            SCOPED_TRACE(pathName(mutatedPath) +
                         (replacement ? " := " + replacement->dump()
                                      : " deleted"));
            std::ofstream(path, std::ios::binary | std::ios::trunc)
                << mutated(original, mutatedPath, 0, replacement).dump(1);

            std::unordered_map<std::string, ABTestResult> loaded;
            ValidationCache loadedChunks;
            loadAbCache(cache.dir.string(), context, loaded,
                        &loadedChunks);
            ++loads;
            const std::string &top = mutatedPath[0];
            if (top == "schema_version" || top == "context" ||
                (top == "entries" && mutatedPath.size() == 1))
                continue;   // the whole file is refused: a cold run
            for (const auto &[key, result] : memo) {
                if (top == "entries" && key == entryKey)
                    continue;
                ASSERT_TRUE(loaded.count(key)) << key;
                EXPECT_EQ(loaded.at(key).configB, result.configB) << key;
                EXPECT_EQ(bitsOf(loaded.at(key).pairedDiffs.mean()),
                          bitsOf(result.pairedDiffs.mean()))
                    << key;
            }
            if (top == "validation" && mutatedPath.size() == 1)
                continue;
            for (const auto &[key, chunk] : validation) {
                if (top == "validation" && key == chunkKey)
                    continue;
                ASSERT_TRUE(loadedChunks.count(key)) << key;
                EXPECT_EQ(loadedChunks.at(key).points, chunk.points) << key;
            }
        }
    }
    EXPECT_GT(loads, 300);
}

TEST(AbCachePersist, MissingDirectoryIsACleanMiss)
{
    std::unordered_map<std::string, ABTestResult> loaded;
    EXPECT_EQ(loadAbCache((fs::path(::testing::TempDir()) /
                           "softsku-abcache-nonexistent")
                              .string(),
                          "any-context", loaded),
              0u);
    EXPECT_TRUE(loaded.empty());
}

} // namespace
} // namespace softsku
