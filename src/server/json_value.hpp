/**
 * @file
 * Minimal JSON document model + recursive-descent parser for the wire
 * protocol. The obs layer only ever *writes* JSON; the server must also
 * *read* it (requests arrive as one JSON object per line), and a
 * network-facing parser has to reject malformed input without taking
 * the daemon down — parse() therefore reports errors by value, never
 * by throwing.
 *
 * Scope is deliberately small: objects, arrays, strings (with the
 * standard escapes incl. \uXXXX), numbers, booleans, null. Numbers
 * keep their raw token next to the double value so 64-bit integers
 * (seeds) round-trip without the 2^53 precision cliff.
 */
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace elv::srv {

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

    /** Read member `key` into `out` with as_integer(). An absent member
     *  keeps `out`; one that is no integer `out` can hold sets `error`
     *  and returns false. */
    template <typename T>
    bool
    read_integer(const std::string &key, T &out, std::string &error) const
    {
        const JsonValue *member = get(key);
        const std::optional<T> value =
            member ? member->as_integer<T>() : std::optional<T>(out);
        if (!value) {
            error = "\"" + key + "\" is not an integer in range";
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

} // namespace elv::srv
