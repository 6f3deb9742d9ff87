/**
 * @file
 * The one parser for numeric command-line flag values. Every binary
 * (the CLI, the server daemon, the dist worker and the bench binaries)
 * reads its numeric flags through it, so a value with trailing
 * characters, a negative count for an unsigned flag, NaN or an
 * out-of-range port is a usage error everywhere, never a silently
 * truncated or wrapped number.
 */
#pragma once

#include <charconv>
#include <cstring>
#include <limits>
#include <string>

#include "common/logging.hpp"

namespace elv {

/** Parse a whole flag value as a T in [lo, hi]; a trailing character,
 * an overflow, NaN or a value out of range is a usage error. */
template <typename T>
T
flag_number(const std::string &flag, const char *text,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    T value{};
    const auto [end, ec] =
        std::from_chars(text, text + std::strlen(text), value);
    if (ec != std::errc() || *end != '\0' || !(value >= lo && value <= hi))
        elv::fatal(flag + " expects a number in range, got '" + text + "'");
    return value;
}

} // namespace elv
