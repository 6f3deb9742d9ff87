/**
 * @file
 * Structured run report for an Elivagar search: one JSON document that
 * aggregates the search configuration, per-candidate CNR/RepCap/score
 * records, the per-phase wall-clock breakdown, the execution tallies
 * and a snapshot of the metrics registry (kernel-mix counters, pool
 * activity, superoperator-table hits). Tallies are copied from the
 * SearchResult itself, so the report always matches what the search
 * returned — it is a serialization, not a second accounting.
 */
#pragma once

#include <string>

#include "core/search.hpp"

namespace elv::core {

/**
 * Render the run report as a JSON document. Embeds the build version
 * and an ISO-8601 UTC timestamp; the metrics section reflects the
 * global registry at call time (all zeros unless `--metrics`-style
 * collection was enabled for the run).
 */
std::string run_report_json(const ElivagarConfig &config,
                            const SearchResult &result);

/**
 * Write run_report_json() to `path`. Returns false (with a warning)
 * when the file cannot be written.
 */
bool write_run_report(const std::string &path,
                      const ElivagarConfig &config,
                      const SearchResult &result);

} // namespace elv::core
