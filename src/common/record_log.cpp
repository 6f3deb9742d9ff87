#include "common/record_log.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/fnv1a.hpp"
#include "common/logging.hpp"

namespace elv {

std::string
fingerprint_to_hex(std::uint64_t value)
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(value));
    return hex;
}

bool
fingerprint_from_hex(std::string_view text, std::uint64_t &value)
{
    const char *end = text.data() + text.size();
    return text.size() == 16 &&
           std::from_chars(text.data(), end, value, 16).ptr == end;
}

std::string
record_with_checksum(const std::string &body)
{
    return body + " ~" + fingerprint_to_hex(fnv1a64(body));
}

bool
strip_record_checksum(std::string &line)
{
    // The token is " ~" + 16 hex digits, always at the end of the line.
    if (line.size() < 19)
        return false;
    const std::size_t body = line.size() - 18;
    std::uint64_t seen = 0;
    if (line.compare(body, 2, " ~") != 0 ||
        !fingerprint_from_hex(std::string_view(line).substr(body + 2),
                              seen))
        return false;
    line.resize(body);
    return seen == fnv1a64(line);
}

RecordLog::RecordLog(std::string path, std::string header,
                     std::optional<std::uint64_t> fingerprint)
    : path_(std::move(path)), header_(std::move(header)),
      fingerprint_(fingerprint)
{
    ELV_REQUIRE(!path_.empty() && header_.find(' ') != std::string::npos,
                "record log needs a path and a '<magic> <version>' header");
}

std::optional<std::string>
RecordLog::load(const Apply &apply)
{
    std::ifstream in(path_, std::ios::binary);
    std::string line;
    // getline() sets eofbit exactly when the line it returned had no
    // '\n', i.e. the write of that line was cut short.
    if (!std::getline(in, line))
        return std::nullopt; // missing or empty: nothing logged yet

    // A crash during the first append can tear the header. With nothing
    // after it that means "nothing logged yet"; with anything after it
    // the header is corrupt.
    auto torn_header = [&](const char *what) -> std::optional<std::string> {
        if (in.good() && in.peek() != EOF)
            elv::fatal(path_ + ": " + what);
        in.close();
        elv::warn(path_ + ": dropping header torn by an interrupted write");
        reset();
        return std::nullopt;
    };
    if (in.eof())
        return torn_header("bad header");
    if (line != header_) {
        // Another version's header is no torn write: an older (or
        // newer) build left it, and the caller decides what to do.
        if (line.rfind(header_.substr(0, header_.find(' ') + 1), 0) == 0)
            return line;
        return torn_header("bad header");
    }
    if (fingerprint_) {
        std::uint64_t stored = 0;
        if (!std::getline(in, line) || in.eof())
            return torn_header("missing fingerprint");
        if (line.rfind("fingerprint ", 0) != 0 ||
            !fingerprint_from_hex(std::string_view(line).substr(12), stored))
            return torn_header("bad fingerprint line");
        if (stored != *fingerprint_) {
            std::string message =
                path_ + " was written by a different configuration "
                        "(stored fingerprint " +
                fingerprint_to_hex(stored) + ", expected " +
                fingerprint_to_hex(*fingerprint_) +
                "); refusing to resume from it";
            if (const std::string guess = hint_ ? hint_(stored) : "";
                !guess.empty())
                message += "; " + guess;
            elv::fatal(message);
        }
    }
    header_written_ = true;

    // A bad FINAL record is the one a crash tore: drop it and truncate
    // it away, so the next append starts on a clean line. A bad record
    // anywhere else is corruption.
    std::streamoff start = in.tellg();
    while (std::getline(in, line)) {
        const bool terminated = !in.eof();
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (terminated && (line.empty() || (strip_record_checksum(line) &&
                                            apply(line)))) {
            start = in.tellg();
            continue;
        }
        if (terminated && in.peek() != EOF)
            elv::fatal(path_ + ": corrupt record at byte " +
                       std::to_string(start));
        in.close();
        elv::warn(path_ + ": dropping record torn by an interrupted write");
        std::filesystem::resize_file(path_,
                                     static_cast<std::uintmax_t>(start));
        break;
    }
    return std::nullopt;
}

void
RecordLog::append(const std::string &body)
{
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    if (!out)
        elv::fatal("cannot open " + path_ + " for appending");
    if (!header_written_) {
        out << header_ << '\n';
        if (fingerprint_)
            out << "fingerprint " << fingerprint_to_hex(*fingerprint_)
                << '\n';
    }
    out << record_with_checksum(body) << '\n';
    out.flush();
    if (!out)
        elv::fatal("failed to append to " + path_);
    header_written_ = true;
}

void
RecordLog::reset()
{
    std::filesystem::resize_file(path_, 0);
    header_written_ = false;
}

} // namespace elv
