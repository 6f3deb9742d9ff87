/**
 * @file
 * The run spec: what fixes one search (Sec. 3, Fig. 4) — task, device,
 * candidate budget and seed — plus the execution knobs every front end
 * shares. search_config() is the only code that turns a spec into an
 * ElivagarConfig, so the CLI, server jobs, dist workers and the bench
 * harness run the same search for the same spec.
 */
#pragma once

#include <cstdint>
#include <string>

#include "core/search.hpp"
#include "obs/json.hpp"
#include "qml/synthetic.hpp"

namespace elv::core {

/** One search over a catalog benchmark on a catalog device. */
struct RunSpec
{
    /** Catalog benchmark name (Table 2). */
    std::string benchmark = "moons";
    /** Catalog device name (Table 3). */
    std::string device = "ibm_lagos";
    /** Candidate pool size. */
    int candidates = 32;
    /** Search/data seed. */
    std::uint64_t seed = 7;
    /** Dataset scale in (0, 1]. */
    double scale = 0.3;
    /** Server admission: the lowest priorities are shed first. */
    int priority = 0;
    /** Wall-clock budget in seconds from the start of the run; 0 off. */
    double deadline_sec = 0.0;
    /** > 0 runs dist::distributed_search on this many local workers.
     * Not fingerprinted: it changes how the work runs, not the result. */
    int workers = 0;

    static constexpr int kMaxCandidates = 4096;
    static constexpr int kMaxWorkers = 64;
    /** One year: past any search, far inside the clock's range. */
    static constexpr double kMaxDeadlineSec = 365.0 * 24 * 3600;

    /** Reject out-of-range fields, NaN included, with fatal(). Catalog
     * names are checked where the catalogs are. */
    void check() const;

    /** Single-line JSON (job manifest, protocol, dist configure line). */
    std::string to_json() const;

    /** Read a spec from a JSON object (unknown keys ignored, missing
     * keys defaulted). False with `error` set on a non-object, a field
     * of the wrong kind or range, or a spec check() rejects. */
    static bool from_json(const obs::JsonValue &value, RunSpec &out,
                          std::string &error);
};

/** The ElivagarConfig `spec` runs with: a pure function of its
 * arguments, so a spec always has one fingerprint and its journal
 * resumes. `threads` is not fingerprinted. */
ElivagarConfig search_config(const RunSpec &spec,
                             const qml::BenchmarkSpec &bench, int threads,
                             const std::string &journal_path);

} // namespace elv::core
