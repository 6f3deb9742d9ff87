/**
 * @file
 * Checked whole-file writers for the repo's artifacts: run reports,
 * traces, profiles, ranking dumps, lint baselines, bench reports, the
 * server's job documents and circuit files rewritten by `lint --fix`.
 * The write, the flush and the close are each checked, so a full disk
 * or a bad path reports failure instead of leaving a short file that
 * looks written.
 */
#pragma once

#include <string>
#include <string_view>

namespace elv {

/** Write `text` to `path`, replacing any previous contents. True when
 *  every byte was written and the file closed cleanly. */
bool write_file(const std::string &path, std::string_view text);

/**
 * write_file to `path` + ".tmp", then rename it over `path`: a reader
 * sees the old file or the whole new one, never a prefix. On failure
 * the tmp file is removed and `path` is left untouched.
 */
bool write_file_atomic(const std::string &path, std::string_view text);

} // namespace elv
