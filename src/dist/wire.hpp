/**
 * @file
 * Wire protocol of the distributed search: line-delimited JSON between
 * the coordinator (src/dist/coordinator) and worker processes
 * (elivagar_worker), reusing the server line format and the bounded
 * obs::JsonValue parser so a broken or hostile peer can at worst end
 * its own connection.
 *
 * Conversation (one JSON object per line):
 *
 *   C -> W  {"op":"configure","spec":{...RunSpec...},"threads":T,
 *            "fp":"<hex16>","crash_after":0}
 *   W -> C  {"ev":"ready","protocol":1,"fp":"<hex16>"}
 *   C -> W  {"op":"cnr","indices":[3,4,5]}
 *   W -> C  {"ev":"cnr","i":3,"cnr":"<hexfloat>","execs":8,
 *            "degraded":false,"retries":0}            (one per index)
 *   W -> C  {"ev":"done","op":"cnr","n":3}
 *   C -> W  {"op":"repcap","indices":[4]}
 *   W -> C  {"ev":"repcap","i":4,"repcap":"<hexfloat>","execs":512}
 *   W -> C  {"ev":"done","op":"repcap","n":1}
 *   C -> W  {"op":"shutdown"}    W -> C  {"ev":"bye"}
 *
 * Design notes:
 *  - Workers never see circuits: generation is cheap and seeded per
 *    candidate, so both sides regenerate the pool from (spec, index)
 *    and the wire carries only indices and scores.
 *  - Doubles travel as hexfloat strings (core/checkpoint helpers), so
 *    a merged ranking is bit-identical to the in-process one.
 *  - The configure message carries the coordinator's config
 *    fingerprint; a worker whose locally derived config fingerprints
 *    differently refuses with an error event instead of silently
 *    contributing values from a different search.
 *  - "crash_after" is a test hook: the worker SIGKILLs itself after
 *    emitting that many records, which is how the reissue path is
 *    exercised deterministically (0 = disabled).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_spec.hpp"
#include "core/search.hpp"

namespace elv::dist {

/** Bumped on incompatible wire changes; checked in the handshake. */
constexpr int kProtocolVersion = 1;

/** Line cap on both ends of the wire. The longest legitimate line, a
 * stage request of at most 4096 indices, is far below it. */
constexpr std::size_t kMaxLineBytes = 1024 * 1024;

/** @name Coordinator -> worker request builders @{ */
std::string make_configure(const core::RunSpec &spec, int threads,
                           std::uint64_t fingerprint, int crash_after);
std::string make_stage_request(const std::string &stage,
                               const std::vector<int> &indices);
std::string make_shutdown();
/** @} */

/** @name Worker -> coordinator event builders @{ */
std::string make_ready(std::uint64_t fingerprint);
std::string make_cnr_record(int index, const core::CandidateCnr &cnr);
std::string make_repcap_record(int index,
                               const core::CandidateRepCap &repcap);
std::string make_stage_done(const std::string &stage, std::size_t count);
std::string make_error(const std::string &message);
std::string make_bye();
/** @} */

/** One parsed worker -> coordinator event. */
struct WorkerEvent
{
    enum class Kind { Ready, Cnr, RepCap, Done, Error, Bye };

    Kind kind = Kind::Error;
    /** Candidate index (Cnr/RepCap records). */
    int index = -1;
    core::CandidateCnr cnr;
    core::CandidateRepCap repcap;
    /** Worker-side config fingerprint (Ready). */
    std::uint64_t fingerprint = 0;
    /** Completed stage name + record count (Done). */
    std::string stage;
    std::size_t count = 0;
    /** Failure description (Error). */
    std::string message;
};

/**
 * Parse one worker event line. Returns false and sets `error` on
 * malformed input (including torn lines from a killed worker);
 * the coordinator treats that as a worker failure, never a crash.
 */
bool parse_worker_event(const std::string &line, WorkerEvent &out,
                        std::string &error);

/** One parsed coordinator -> worker request. */
struct CoordRequest
{
    enum class Kind { Configure, Stage, Shutdown };

    Kind kind = Kind::Shutdown;
    /** @name Configure payload @{ */
    core::RunSpec spec;
    int threads = 1;
    std::uint64_t fingerprint = 0;
    int crash_after = 0;
    /** @} */
    /** @name Stage payload @{ */
    std::string stage; // "cnr" or "repcap"
    std::vector<int> indices;
    /** @} */
};

/** Parse one coordinator request line (worker side). */
bool parse_coord_request(const std::string &line, CoordRequest &out,
                         std::string &error);

} // namespace elv::dist
