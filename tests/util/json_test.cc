/**
 * @file
 * Unit tests for the JSON parser/serializer used by μSKU input files
 * and design-space reports.
 */

#include <gtest/gtest.h>

#include "util/json.hh"

namespace softsku {
namespace {

TEST(Json, ParsesScalars)
{
    std::string err;
    auto [num, okNum] = Json::parse("42", &err);
    ASSERT_TRUE(okNum) << err;
    EXPECT_TRUE(num.isNumber());
    EXPECT_EQ(num.asInt(), 42);

    auto [neg, okNeg] = Json::parse("-3.5e2");
    ASSERT_TRUE(okNeg);
    EXPECT_DOUBLE_EQ(neg.asNumber(), -350.0);

    auto [t, okT] = Json::parse("true");
    ASSERT_TRUE(okT);
    EXPECT_TRUE(t.asBool());

    auto [n, okN] = Json::parse("null");
    ASSERT_TRUE(okN);
    EXPECT_TRUE(n.isNull());

    auto [s, okS] = Json::parse("\"hello\"");
    ASSERT_TRUE(okS);
    EXPECT_EQ(s.asString(), "hello");
}

TEST(Json, ParsesNestedStructures)
{
    const char *doc = R"({
        "microservice": "web",
        "platform": "skylake18",
        "sweep": {"mode": "independent", "knobs": ["cdp", "thp"]},
        "samples": [1, 2.5, 3]
    })";
    std::string err;
    auto [j, ok] = Json::parse(doc, &err);
    ASSERT_TRUE(ok) << err;
    EXPECT_EQ(j.at("microservice").asString(), "web");
    EXPECT_EQ(j.at("sweep").at("mode").asString(), "independent");
    EXPECT_EQ(j.at("sweep").at("knobs").size(), 2u);
    EXPECT_EQ(j.at("sweep").at("knobs").at(1).asString(), "thp");
    EXPECT_DOUBLE_EQ(j.at("samples").at(1).asNumber(), 2.5);
}

TEST(Json, ParsesStringEscapes)
{
    auto [j, ok] = Json::parse(R"("a\"b\\c\ndA")");
    ASSERT_TRUE(ok);
    EXPECT_EQ(j.asString(), "a\"b\\c\nd" "A");
}

TEST(Json, RejectsMalformedInput)
{
    std::string err;
    for (const char *bad :
         {"{", "[1,", "{\"a\" 1}", "tru", "\"unterminated",
          "{\"a\":1} extra", "", "nan", "[1 2]"}) {
        auto [j, ok] = Json::parse(bad, &err);
        EXPECT_FALSE(ok) << "should reject: " << bad;
    }
}

TEST(Json, RejectsDeepNestingWithoutCrashing)
{
    // Each level recurses once in the parser; without a cap, input like
    // this overflows the stack instead of failing the parse.
    std::string arrays(100000, '[');
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"a\":";
    for (const std::string &deep : {arrays, objects}) {
        std::string err;
        auto [j, ok] = Json::parse(deep, &err);
        EXPECT_FALSE(ok);
        EXPECT_NE(err.find("nesting"), std::string::npos) << err;
    }
}

TEST(Json, AcceptsModerateNesting)
{
    std::string doc = std::string(100, '[') + std::string(100, ']');
    auto [j, ok] = Json::parse(doc);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(j.isArray());
}

TEST(Json, RoundTripsThroughDump)
{
    const char *doc =
        R"({"a": [1, 2, {"b": true}], "c": null, "d": "x\ny", "e": -0.25})";
    auto [j1, ok1] = Json::parse(doc);
    ASSERT_TRUE(ok1);
    std::string text = j1.dump();
    auto [j2, ok2] = Json::parse(text);
    ASSERT_TRUE(ok2);
    EXPECT_EQ(j2.dump(), text);
    EXPECT_EQ(j2.at("a").at(2).at("b").asBool(), true);
    EXPECT_DOUBLE_EQ(j2.at("e").asNumber(), -0.25);
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zeta", Json(1));
    obj.set("alpha", Json(2));
    obj.set("mid", Json(3));
    const auto &members = obj.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "zeta");
    EXPECT_EQ(members[1].first, "alpha");
    EXPECT_EQ(members[2].first, "mid");
}

TEST(Json, SetReplacesExistingKey)
{
    Json obj = Json::object();
    obj.set("k", Json(1));
    obj.set("k", Json(9));
    EXPECT_EQ(obj.size(), 1u);
    EXPECT_EQ(obj.at("k").asInt(), 9);
}

TEST(Json, DefaultedAccessors)
{
    auto [j, ok] = Json::parse(R"({"x": 5, "flag": true, "name": "n"})");
    ASSERT_TRUE(ok);
    EXPECT_DOUBLE_EQ(j.numberOr("x", -1), 5.0);
    EXPECT_DOUBLE_EQ(j.numberOr("missing", -1), -1.0);
    EXPECT_TRUE(j.boolOr("flag", false));
    EXPECT_FALSE(j.boolOr("missing", false));
    EXPECT_EQ(j.stringOr("name", "d"), "n");
    EXPECT_EQ(j.stringOr("missing", "d"), "d");
}

TEST(Json, PrettyPrintIsStable)
{
    Json obj = Json::object();
    obj.set("a", Json(1));
    Json arr = Json::array();
    arr.push(Json("x"));
    obj.set("b", std::move(arr));
    std::string pretty = obj.dump(2);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    auto [round, ok] = Json::parse(pretty);
    ASSERT_TRUE(ok);
    EXPECT_EQ(round.at("a").asInt(), 1);
}

} // namespace
} // namespace softsku
