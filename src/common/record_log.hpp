/**
 * @file
 * Append-only checksummed record log: the one durable-log format. The
 * search journal and the server's jobs.manifest frame, verify and
 * recover their files here and keep only their own record grammar. On
 * disk:
 *
 *   <magic> <version>      # header line, e.g. "elv-search-journal 2"
 *   fingerprint <16 hex>   # only for logs constructed with one
 *   <body> ~<16 hex>       # one line per record: body + FNV-1a 64
 *
 * Each append opens, writes, flushes and closes the file, so a crash
 * loses at most the record in flight. The checksum makes torn-write
 * detection exact: a record cut at any byte offset fails it, even when
 * the shortened fields still lex ("15" torn to "1").
 *
 * Not thread-safe: callers serialize access under their own locks.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace elv {

class RecordLog
{
  public:
    /** Given the stored fingerprint, a guess at which configuration
     *  field changed ("" = no guess). */
    using MismatchHint = std::function<std::string(std::uint64_t)>;
    /** Parses one verified record body; false = malformed. */
    using Apply = std::function<bool(const std::string &body)>;

    /** `header` is "<magic> <version>"; a log with a `fingerprint`
     *  stores it after the header and load() checks it. */
    RecordLog(std::string path, std::string header,
              std::optional<std::uint64_t> fingerprint = std::nullopt);

    void set_mismatch_hint(MismatchHint hint) { hint_ = std::move(hint); }

    /**
     * Replay every verified record body through `apply`, in file order:
     *  - a missing or empty file means nothing was logged yet;
     *  - a torn header with nothing after it resets the file, warning;
     *  - a damaged header with anything after it is fatal();
     *  - a header of the same magic and another version is returned,
     *    with nothing replayed: the caller decides;
     *  - a fingerprint mismatch is fatal(), with the mismatch hint;
     *  - a final record that is unterminated, fails its checksum or is
     *    refused by `apply` is the one a crash tore: it is dropped and
     *    truncated away, warning, so the next append lands cleanly;
     *  - any other bad record is fatal().
     */
    std::optional<std::string> load(const Apply &apply);

    /** Append one record (the header first, if the file has none);
     *  fatal() when the write fails. */
    void append(const std::string &body);

    /** Truncate the file to empty; the next append starts afresh. */
    void reset();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string header_;
    std::optional<std::uint64_t> fingerprint_;
    MismatchHint hint_;
    /** The file holds a verified header, so append() skips it. */
    bool header_written_ = false;
};

/** The text of fingerprints and checksums, in the logs and on the dist
 *  wire: 16 lowercase hex digits; parsing accepts exactly 16 digits. */
std::string fingerprint_to_hex(std::uint64_t value);
bool fingerprint_from_hex(std::string_view text, std::uint64_t &value);

/** `body` with its trailing " ~<16 hex>" checksum token. */
std::string record_with_checksum(const std::string &body);

/** Verify and strip the checksum token of `line` in place; false
 *  (`line` unspecified) when the token is missing or wrong. */
bool strip_record_checksum(std::string &line);

} // namespace elv
