/**
 * @file
 * 64-bit FNV-1a over bytes: the durable logs' record checksum, the
 * catalog devices' calibration seed and the lint baseline's message
 * hash. Each value is pinned on disk or in a fixture, so the function
 * must never change.
 */
#pragma once

#include <cstdint>
#include <string_view>

namespace elv {

inline std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace elv
