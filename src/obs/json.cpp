#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hpp"
#include "common/table.hpp"

namespace elv::obs {

void
JsonWriter::pre_value()
{
    ELV_REQUIRE(!done_, "JSON document already complete");
    if (is_object_.empty())
        return; // top-level value
    if (is_object_.back()) {
        ELV_REQUIRE(pending_key_, "object member needs a key first");
        pending_key_ = false;
    } else if (has_element_.back()) {
        out_ += ", ";
    }
    has_element_.back() = true;
}

JsonWriter &
JsonWriter::begin_object()
{
    pre_value();
    out_ += '{';
    is_object_.push_back(true);
    has_element_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::end_object()
{
    ELV_REQUIRE(!is_object_.empty() && is_object_.back() &&
                    !pending_key_,
                "no object to close here");
    out_ += '}';
    is_object_.pop_back();
    has_element_.pop_back();
    if (is_object_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::begin_array()
{
    pre_value();
    out_ += '[';
    is_object_.push_back(false);
    has_element_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::end_array()
{
    ELV_REQUIRE(!is_object_.empty() && !is_object_.back(),
                "no array to close here");
    out_ += ']';
    is_object_.pop_back();
    has_element_.pop_back();
    if (is_object_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    ELV_REQUIRE(!is_object_.empty() && is_object_.back() &&
                    !pending_key_,
                "key() only valid inside an object");
    if (has_element_.back())
        out_ += ", ";
    out_ += Table::json_escape(k);
    out_ += ": ";
    has_element_.back() = true;
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    if (!pending_key_)
        pre_value();
    else
        pending_key_ = false;
    out_ += Table::json_escape(v);
    if (is_object_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    if (!std::isfinite(v))
        return raw("null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(buf);
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    return raw(std::to_string(v));
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    return raw(std::to_string(v));
}

JsonWriter &
JsonWriter::value(int v)
{
    return raw(std::to_string(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    return raw(v ? "true" : "false");
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    if (!pending_key_)
        pre_value();
    else
        pending_key_ = false;
    out_ += json;
    if (is_object_.empty())
        done_ = true;
    return *this;
}

std::string
JsonWriter::str() const
{
    ELV_REQUIRE(is_object_.empty() && !pending_key_,
                "unclosed JSON container");
    return out_;
}

namespace {

/** Recursive-descent parser over a byte range; no exceptions. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    run(JsonValue &out)
    {
        skip_ws();
        if (!parse_value(out, 0))
            return false;
        skip_ws();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    /** Hostile-input guard: protocol documents are never this deep. */
    static constexpr int kMaxDepth = 32;

    bool
    fail(const std::string &what)
    {
        error_ = what + " at byte " + std::to_string(pos_);
        return false;
    }

    void
    skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
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
    literal(const char *word, std::size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("bad literal, expected '") + word +
                        "'");
        pos_ += len;
        return true;
    }

    bool
    parse_value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        switch (c) {
        case '{':
            return parse_object(out, depth);
        case '[':
            return parse_array(out, depth);
        case '"':
            out.kind = JsonValue::Kind::String;
            return parse_string(out.text);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null", 4);
        default:
            return parse_number(out);
        }
    }

    bool
    parse_object(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skip_ws();
        if (consume('}'))
            return true;
        while (true) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key string");
            std::string key;
            if (!parse_string(key))
                return false;
            skip_ws();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skip_ws();
            JsonValue value;
            if (!parse_value(value, depth + 1))
                return false;
            out.members[key] = std::move(value);
            skip_ws();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parse_array(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skip_ws();
        if (consume(']'))
            return true;
        while (true) {
            skip_ws();
            JsonValue value;
            if (!parse_value(value, depth + 1))
                return false;
            out.items.push_back(std::move(value));
            skip_ws();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parse_string(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (++pos_ >= text_.size())
                    break;
                switch (text_[pos_]) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (!append_unicode(out))
                        return false;
                    break;
                }
                default:
                    return fail("bad escape sequence");
                }
                ++pos_;
                continue;
            }
            if (c < 0x20)
                return fail("unescaped control character in string");
            out += static_cast<char>(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    /** \uXXXX (BMP only; surrogate pairs rejected) encoded as UTF-8. */
    bool
    append_unicode(std::string &out)
    {
        if (pos_ + 4 >= text_.size())
            return fail("truncated \\u escape");
        unsigned value = 0;
        for (int i = 1; i <= 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            value <<= 4;
            if (h >= '0' && h <= '9')
                value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                value |= static_cast<unsigned>(h - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        if (value >= 0xd800 && value <= 0xdfff)
            return fail("surrogate \\u escapes are not supported");
        if (value < 0x80) {
            out += static_cast<char>(value);
        } else if (value < 0x800) {
            out += static_cast<char>(0xc0 | (value >> 6));
            out += static_cast<char>(0x80 | (value & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (value >> 12));
            out += static_cast<char>(0x80 | ((value >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (value & 0x3f));
        }
        pos_ += 4;
        return true;
    }

    bool
    parse_number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (consume('.'))
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (token.empty() || end != token.c_str() + token.size()) {
            pos_ = start;
            return fail("bad numeric token");
        }
        out.kind = JsonValue::Kind::Number;
        out.number = value;
        out.text = token;
        return true;
    }

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
};

} // namespace

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = members.find(key);
    return it == members.end() ? nullptr : &it->second;
}

std::string
JsonValue::as_string(const std::string &fallback) const
{
    return kind == Kind::String ? text : fallback;
}

double
JsonValue::as_number(double fallback) const
{
    return kind == Kind::Number ? number : fallback;
}

bool
JsonValue::as_bool(bool fallback) const
{
    return kind == Kind::Bool ? boolean : fallback;
}

bool
json_parse(const std::string &text, JsonValue &out, std::string &error)
{
    Parser parser(text, error);
    out = JsonValue{};
    return parser.run(out);
}

} // namespace elv::obs
