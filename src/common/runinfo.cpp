#include "common/runinfo.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>

#include "elv_version.hpp"

namespace elv {

const char *
version_string()
{
    return ELV_VERSION_STRING;
}

std::string
iso8601_utc_now()
{
    const std::time_t now =
        std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
    std::tm tm_buf{};
    gmtime_r(&now, &tm_buf);
    char out[24];
    std::strftime(out, sizeof(out), "%Y-%m-%dT%H:%M:%SZ", &tm_buf);
    return out;
}

} // namespace elv
