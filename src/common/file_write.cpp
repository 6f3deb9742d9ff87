#include "common/file_write.hpp"

#include <cstdio>

namespace elv {

std::optional<std::string>
read_file(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return std::nullopt;
    std::string text;
    char chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0)
        text.append(chunk, got);
    const bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed)
        return std::nullopt;
    return text;
}

bool
write_file(const std::string &path, std::string_view text)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return false;
    const bool written =
        std::fwrite(text.data(), 1, text.size(), file) == text.size();
    const bool flushed = std::fflush(file) == 0;
    return std::fclose(file) == 0 && written && flushed;
}

bool
write_file_atomic(const std::string &path, std::string_view text)
{
    const std::string tmp = path + ".tmp";
    if (!write_file(tmp, text) ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace elv
