#include "util/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        panic("Json::asBool on non-bool node");
    return bool_;
}

double
Json::asNumber() const
{
    if (type_ != Type::Number)
        panic("Json::asNumber on non-number node");
    return num_;
}

long long
Json::asInt() const
{
    return static_cast<long long>(std::llround(asNumber()));
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        panic("Json::asString on non-string node");
    return str_;
}

const Json &
Json::at(size_t index) const
{
    if (type_ != Type::Array)
        panic("Json::at(index) on non-array node");
    if (index >= arr_.size())
        panic("Json array index %zu out of range (%zu)", index, arr_.size());
    return arr_[index];
}

const Json &
Json::at(std::string_view key) const
{
    if (type_ != Type::Object)
        panic("Json::at(key) on non-object node");
    if (const Json *member = find(key))
        return *member;
    panic("Json object has no member '%.*s'",
          static_cast<int>(key.size()), key.data());
}

const Json *
Json::find(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
Json::numberOr(std::string_view key, double fallback) const
{
    const Json *member = find(key);
    return member ? member->asNumber() : fallback;
}

bool
Json::boolOr(std::string_view key, bool fallback) const
{
    const Json *member = find(key);
    return member ? member->asBool() : fallback;
}

std::string
Json::stringOr(std::string_view key, const std::string &fallback) const
{
    const Json *member = find(key);
    return member ? member->asString() : fallback;
}

bool
Json::contains(std::string_view key) const
{
    return find(key) != nullptr;
}

size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

void
Json::push(Json value)
{
    if (type_ != Type::Array)
        panic("Json::push on non-array node");
    arr_.push_back(std::move(value));
}

void
Json::set(std::string key, Json value)
{
    if (type_ != Type::Object)
        panic("Json::set on non-object node");
    for (auto &[k, v] : obj_) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    obj_.emplace_back(std::move(key), std::move(value));
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (type_ != Type::Object)
        panic("Json::members on non-object node");
    return obj_;
}

const std::vector<Json> &
Json::elements() const
{
    if (type_ != Type::Array)
        panic("Json::elements on non-array node");
    return arr_;
}

namespace {

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
}

void
writeNumber(std::string &out, double v)
{
    if (v == std::llround(v) && std::fabs(v) < 1e15) {
        out += format("%lld", std::llround(v));
    } else {
        out += format("%.10g", v);
    }
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad(static_cast<size_t>(indent) * (depth + 1), ' ');
    const std::string close(static_cast<size_t>(indent) * depth, ' ');
    const char *nl = indent > 0 ? "\n" : "";

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        writeNumber(out, num_);
        break;
      case Type::String:
        escapeString(out, str_);
        break;
      case Type::Array:
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (size_t i = 0; i < arr_.size(); ++i) {
            out += pad;
            arr_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < arr_.size())
                out += ',';
            out += nl;
        }
        out += close;
        out += ']';
        break;
      case Type::Object:
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (size_t i = 0; i < obj_.size(); ++i) {
            out += pad;
            escapeString(out, obj_[i].first);
            out += indent > 0 ? ": " : ":";
            obj_[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < obj_.size())
                out += ',';
            out += nl;
        }
        out += close;
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/**
 * Nesting limit for arrays and objects.  The library's own documents
 * nest under ten levels; the cap keeps a hostile or corrupt file (say,
 * a cache file of 100 000 '[') from overflowing the stack, and turns it
 * into an ordinary parse error.
 */
constexpr int kMaxDepth = 512;

/** Recursive-descent JSON parser over a string_view cursor. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error) {}

    bool
    parseDocument(Json &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        if (error_ && error_->empty())
            *error_ = format("json: %s at offset %zu", msg.c_str(), pos_);
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    bool
    parseValue(Json &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth)
                return fail("nesting deeper than the limit");
            ++depth_;
            bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
        }
        if (c == '"')
            return parseString(out);
        if (c == 't' && literal("true")) {
            out = Json(true);
            return true;
        }
        if (c == 'f' && literal("false")) {
            out = Json(false);
            return true;
        }
        if (c == 'n' && literal("null")) {
            out = Json(nullptr);
            return true;
        }
        return parseNumber(out);
    }

    bool
    parseObject(Json &out)
    {
        consume('{');
        out = Json::object();
        skipSpace();
        if (consume('}'))
            return true;
        while (true) {
            skipSpace();
            Json key;
            if (!parseString(key))
                return fail("expected object key");
            skipSpace();
            if (!consume(':'))
                return fail("expected ':' after object key");
            Json value;
            if (!parseValue(value))
                return false;
            out.set(key.asString(), std::move(value));
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Json &out)
    {
        consume('[');
        out = Json::array();
        skipSpace();
        if (consume(']'))
            return true;
        while (true) {
            Json value;
            if (!parseValue(value))
                return false;
            out.push(std::move(value));
            skipSpace();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(Json &out)
    {
        if (!consume('"'))
            return fail("expected string");
        std::string s;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"') {
                out = Json(std::move(s));
                return true;
            }
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'n': s += '\n'; break;
              case 't': s += '\t'; break;
              case 'r': s += '\r'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // UTF-8 encode the (BMP-only) code point.
                if (code < 0x80) {
                    s += static_cast<char>(code);
                } else if (code < 0x800) {
                    s += static_cast<char>(0xC0 | (code >> 6));
                    s += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    s += static_cast<char>(0xE0 | (code >> 12));
                    s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    s += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool sawDigit = false;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                sawDigit = true;
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-' ||
                       c == '+') {
                ++pos_;
            } else {
                break;
            }
        }
        if (!sawDigit)
            return fail("expected a value");
        auto parsed = parseDouble(text_.substr(start, pos_ - start));
        if (!parsed)
            return fail("malformed number");
        out = Json(*parsed);
        return true;
    }

    std::string_view text_;
    std::string *error_;
    size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

std::pair<Json, bool>
Json::parse(std::string_view text, std::string *error)
{
    Json out;
    Parser parser(text, error);
    bool ok = parser.parseDocument(out);
    return {std::move(out), ok};
}

} // namespace softsku
