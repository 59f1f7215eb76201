/**
 * @file
 * A compact JSON value model, parser, and serializer.
 *
 * μSKU's input files (Sec. 4 of the paper: target microservice, platform,
 * sweep configuration) and its emitted design-space maps are JSON.  The
 * library is self-contained so the repository has no external
 * dependencies beyond the test/bench frameworks.
 */

#ifndef SOFTSKU_UTIL_JSON_HH
#define SOFTSKU_UTIL_JSON_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace softsku {

/**
 * A JSON document node.  Objects keep key insertion order so emitted
 * reports are stable and diffable.
 */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(std::nullptr_t) : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double n) : type_(Type::Number), num_(n) {}
    Json(int n) : type_(Type::Number), num_(n) {}
    Json(long long n) : type_(Type::Number), num_(static_cast<double>(n)) {}
    Json(std::uint64_t n)
        : type_(Type::Number), num_(static_cast<double>(n)) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    /** An empty array node. */
    static Json array();
    /** An empty object node. */
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Value accessors; panic when the node has the wrong type. */
    bool asBool() const;
    double asNumber() const;
    long long asInt() const;
    const std::string &asString() const;

    /** Array element access; panics on non-array or out-of-range. */
    const Json &at(size_t index) const;
    /** Object member access; panics when the key is missing. */
    const Json &at(std::string_view key) const;
    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(std::string_view key) const;
    /** Object member access with a default for missing keys. */
    double numberOr(std::string_view key, double fallback) const;
    bool boolOr(std::string_view key, bool fallback) const;
    std::string stringOr(std::string_view key,
                         const std::string &fallback) const;

    /** True when this object has member @p key. */
    bool contains(std::string_view key) const;

    /** Number of array elements or object members. */
    size_t size() const;

    /** Append an element to an array node. */
    void push(Json value);
    /** Set (or replace) an object member. */
    void set(std::string key, Json value);

    /** Ordered object members. */
    const std::vector<std::pair<std::string, Json>> &members() const;
    /** Array elements. */
    const std::vector<Json> &elements() const;

    /** Serialize; @p indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /**
     * Parse a JSON document.
     * @param text   full document text
     * @param error  receives a message on failure, when non-null
     * @return parsed value, or nullopt-like Null plus error on failure
     */
    static std::pair<Json, bool> parse(std::string_view text,
                                       std::string *error = nullptr);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

} // namespace softsku

#endif // SOFTSKU_UTIL_JSON_HH
