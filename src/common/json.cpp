#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "common/parse.h"

namespace bxt {

JsonWriter::JsonWriter(bool pretty) : pretty_(pretty) {}

std::string
JsonWriter::str() const
{
    BXT_ASSERT(needs_comma_.empty());
    return out_;
}

void
JsonWriter::separator()
{
    if (needs_comma_.empty())
        return;
    if (needs_comma_.back())
        out_ += ',';
    needs_comma_.back() = true;
    if (pretty_) {
        out_ += '\n';
        out_.append(needs_comma_.size() * 2, ' ');
    }
}

void
JsonWriter::writeKey(const std::string &key)
{
    separator();
    out_ += '"';
    out_ += escape(key);
    out_ += pretty_ ? "\": " : "\":";
}

void
JsonWriter::beginObject()
{
    separator();
    out_ += '{';
    needs_comma_.push_back(false);
}

void
JsonWriter::beginObject(const std::string &key)
{
    writeKey(key);
    out_ += '{';
    needs_comma_.push_back(false);
}

void
JsonWriter::endObject()
{
    BXT_ASSERT(!needs_comma_.empty());
    const bool had_members = needs_comma_.back();
    needs_comma_.pop_back();
    if (pretty_ && had_members) {
        out_ += '\n';
        out_.append(needs_comma_.size() * 2, ' ');
    }
    out_ += '}';
}

void
JsonWriter::beginArray()
{
    separator();
    out_ += '[';
    needs_comma_.push_back(false);
}

void
JsonWriter::beginArray(const std::string &key)
{
    writeKey(key);
    out_ += '[';
    needs_comma_.push_back(false);
}

void
JsonWriter::endArray()
{
    BXT_ASSERT(!needs_comma_.empty());
    const bool had_members = needs_comma_.back();
    needs_comma_.pop_back();
    if (pretty_ && had_members) {
        out_ += '\n';
        out_.append(needs_comma_.size() * 2, ' ');
    }
    out_ += ']';
}

void
JsonWriter::kv(const std::string &key, const std::string &value)
{
    writeKey(key);
    out_ += '"';
    out_ += escape(value);
    out_ += '"';
}

void
JsonWriter::kv(const std::string &key, const char *value)
{
    kv(key, std::string(value));
}

void
JsonWriter::kv(const std::string &key, double value)
{
    writeKey(key);
    out_ += formatNumber(value);
}

void
JsonWriter::kv(const std::string &key, std::uint64_t value)
{
    writeKey(key);
    out_ += std::to_string(value);
}

void
JsonWriter::kv(const std::string &key, std::int64_t value)
{
    writeKey(key);
    out_ += std::to_string(value);
}

void
JsonWriter::kv(const std::string &key, int value)
{
    kv(key, static_cast<std::int64_t>(value));
}

void
JsonWriter::kv(const std::string &key, bool value)
{
    writeKey(key);
    out_ += value ? "true" : "false";
}

void
JsonWriter::kvRaw(const std::string &key, const std::string &raw_json)
{
    writeKey(key);
    out_ += raw_json;
}

void
JsonWriter::value(const std::string &text)
{
    separator();
    out_ += '"';
    out_ += escape(text);
    out_ += '"';
}

void
JsonWriter::value(double number)
{
    separator();
    out_ += formatNumber(number);
}

void
JsonWriter::value(std::uint64_t number)
{
    separator();
    out_ += std::to_string(number);
}

std::string
JsonWriter::escape(const std::string &text)
{
    std::string escaped;
    escaped.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\n': escaped += "\\n"; break;
        case '\r': escaped += "\\r"; break;
        case '\t': escaped += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                escaped += buf;
            } else {
                escaped += c;
            }
        }
    }
    return escaped;
}

std::string
JsonWriter::formatNumber(double number)
{
    if (!std::isfinite(number))
        return "0"; // JSON has no Inf/NaN; clamp rather than corrupt.
    // Integral values print without an exponent or trailing ".0" so
    // counters embedded as doubles stay readable and diffable.
    if (number == std::floor(number) && std::fabs(number) < 1.0e15) {
        return std::to_string(static_cast<long long>(number));
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    return buf;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

namespace {

/** Recursive-descent JSON parser over a string (no streaming needed). */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    bool fail(const std::string &message)
    {
        if (error_ != nullptr) {
            *error_ = message + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool literal(const char *word, JsonValue &out, JsonValue::Kind kind,
                 bool boolean)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return fail("invalid literal");
        pos_ += len;
        out.kind = kind;
        out.boolean = boolean;
        return true;
    }

    bool parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
        case '{': return parseObject(out);
        case '[': return parseArray(out);
        case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        case 't': return literal("true", out, JsonValue::Kind::Bool, true);
        case 'f': return literal("false", out, JsonValue::Kind::Bool, false);
        case 'n': return literal("null", out, JsonValue::Kind::Null, false);
        default: return parseNumber(out);
        }
    }

    bool parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipSpace();
            JsonValue member;
            if (!parseValue(member))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            JsonValue element;
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // Snapshot/trace strings are ASCII; encode BMP code
                // points as UTF-8 without surrogate-pair handling.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::string_view("0123456789.eE+-").find(text_[pos_]) !=
                   std::string_view::npos)
            ++pos_;
        if (!parseReal(std::string_view(text_).substr(start, pos_ - start),
                       out.number))
            return fail("invalid number");
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *error)
{
    Parser parser(text, error);
    out = JsonValue{};
    return parser.parse(out);
}

} // namespace bxt
