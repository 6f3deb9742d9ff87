/**
 * @file
 * Minimal JSON. The streaming writer handles comma placement and
 * escaping and emits `null` for non-finite doubles, so every artifact
 * stays parseable by strict consumers (`python3 -m json.tool`,
 * Perfetto). The reader takes what arrives from outside (server
 * requests, dist wire lines, run specs): it must reject malformed input
 * without taking a daemon down, so json_parse() reports errors by
 * value, never by throwing. Its scope is objects, arrays, strings (with
 * the standard escapes incl. \uXXXX), numbers, booleans and null.
 * Numbers keep their raw token next to the double value so 64-bit
 * integers (seeds) round-trip without the 2^53 precision cliff.
 */
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace elv::obs {

/** Stack-based JSON builder; misuse trips ELV_REQUIRE. */
class JsonWriter
{
  public:
    JsonWriter &begin_object();
    JsonWriter &end_object();
    JsonWriter &begin_array();
    JsonWriter &end_array();

    /** Member key inside an object; must be followed by a value. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);

    /** Splice a pre-rendered JSON fragment as one value. */
    JsonWriter &raw(const std::string &json);

    /** @name key+value shorthands @{ */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, const T &v)
    {
        return key(k).value(v);
    }
    /** @} */

    /** The document; requires every container to be closed. */
    std::string str() const;

  private:
    /** Comma/validity bookkeeping before a value or key is emitted. */
    void pre_value();

    std::string out_;
    /** One frame per open container: true = object, false = array. */
    std::vector<bool> is_object_;
    /** Whether the current container already holds an element. */
    std::vector<bool> has_element_;
    bool pending_key_ = false;
    bool done_ = false;
};

/** One parsed JSON value (a tree; cheap enough for protocol lines). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** String payload, or the raw numeric token for Kind::Number. */
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> members;

    bool is_object() const { return kind == Kind::Object; }
    bool is_string() const { return kind == Kind::String; }
    bool is_number() const { return kind == Kind::Number; }

    /** Object member by key, or nullptr (also for non-objects). */
    const JsonValue *get(const std::string &key) const;

    /** @name Typed accessors with defaults (wrong kind = default) @{ */
    std::string as_string(const std::string &fallback = "") const;
    double as_number(double fallback = 0.0) const;
    bool as_bool(bool fallback = false) const;
    /** @} */

    /** This number as a T when it is an integer T holds exactly, else
     *  std::nullopt: no conversion wraps, truncates or is undefined. */
    template <typename T> std::optional<T> as_integer() const;

    /** Read member `key` into `out`, a std::string, bool, double or
     *  integer. An absent member keeps `out`; one of another JSON kind,
     *  or an integer `out` cannot hold (see as_integer()), sets `error`
     *  and returns false. */
    template <typename T>
    bool
    read(const std::string &key, T &out, std::string &error) const
    {
        const JsonValue *member = get(key);
        if (!member)
            return true;
        std::optional<T> value;
        const char *want = "an integer in range";
        if constexpr (std::is_same_v<T, std::string>) {
            want = "a string";
            if (member->is_string())
                value = member->text;
        } else if constexpr (std::is_same_v<T, bool>) {
            want = "a boolean";
            if (member->kind == Kind::Bool)
                value = member->boolean;
        } else if constexpr (std::is_floating_point_v<T>) {
            want = "a number";
            if (member->is_number())
                value = member->number;
        } else {
            value = member->as_integer<T>();
        }
        if (!value) {
            error = "\"" + key + "\" is not " + want;
            return false;
        }
        out = *value;
        return true;
    }
};

template <typename T>
std::optional<T>
JsonValue::as_integer() const
{
    if (kind != Kind::Number)
        return std::nullopt;
    // Plain integer tokens parse exactly from the raw text (seeds past
    // 2^53); any other token ("1e3", "8.0") goes through the double,
    // range-checked before the cast.
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, error] = std::from_chars(text.data(), end, value);
    if (ptr == end)
        return error == std::errc() ? std::optional<T>(value)
                                    : std::nullopt;
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!(number >= (std::numeric_limits<T>::is_signed ? -limit : 0.0) &&
          number < limit && number == std::trunc(number)))
        return std::nullopt;
    return static_cast<T>(number);
}

/**
 * Parse one JSON document. Returns false and sets `error` (with a byte
 * offset) on malformed input; trailing non-whitespace is an error.
 * Depth is bounded so hostile input cannot blow the stack.
 */
bool json_parse(const std::string &text, JsonValue &out,
                std::string &error);

} // namespace elv::obs
