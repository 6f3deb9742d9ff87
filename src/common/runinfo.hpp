/**
 * @file
 * Build/run provenance helpers: the compiled-in version string and an
 * ISO-8601 wall-clock stamp. Every machine-readable artifact this tree
 * emits (BENCH_*.json, run_report.json, trace files) embeds both, so
 * result trajectories stay comparable across machines and commits.
 */
#pragma once

#include <string>

namespace elv {

/**
 * git-describe-style version of this build (e.g. "21a9faa-dirty"),
 * read on every build; "unknown" when the source tree was built outside
 * git.
 */
const char *version_string();

/** Current UTC wall-clock time as ISO-8601 ("2026-08-06T12:34:56Z"). */
std::string iso8601_utc_now();

} // namespace elv
