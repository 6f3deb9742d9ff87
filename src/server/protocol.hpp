/**
 * @file
 * Wire protocol of the search service: line-delimited JSON over a byte
 * stream. Every request is one JSON object on one line with an "op"
 * field; every response is one JSON object on one line with an "ok"
 * field. The protocol layer is transport-agnostic and side-effect-free
 * beyond the Server calls it makes, so tests drive it without sockets.
 *
 * Operations:
 *
 *   {"op":"submit","spec":{...RunSpec...}}
 *     -> {"ok":true,"id":"job-3"}
 *     -> {"ok":false,"error":"queue full","retry_after_ms":2500}
 *   {"op":"status","id":"job-3"}        job snapshot (or every job
 *   {"op":"jobs"}                        when no id is given)
 *   {"op":"cancel","id":"job-3"}
 *   {"op":"result","id":"job-3"}        completed job's result doc
 *   {"op":"health"} / {"op":"metrics"}
 *   {"op":"events","since":S,"limit":N} operational events with
 *                                        seq > S (default 0, newest-
 *                                        clipped to N, default 64)
 *   {"op":"watch","id":"job-3"}         transport streams one status
 *                                        line per state change until
 *                                        the job is terminal
 *   {"op":"shutdown","drain_sec":N}     only when the daemon allows it
 *
 * Unknown ops and malformed JSON get {"ok":false,"error":...} — a bad
 * client cannot crash or wedge the daemon.
 */
#pragma once

#include <string>

#include "server/server.hpp"

namespace elv::srv {

/** What the transport should do after writing the response line. */
enum class RequestAction {
    /** Just send the response. */
    Reply,
    /** Send it, then stream status lines until the job is terminal. */
    Watch,
    /** Send it, then begin daemon shutdown. */
    Shutdown,
};

/** A handled request: the response line plus transport instructions. */
struct RequestOutcome
{
    std::string response;
    RequestAction action = RequestAction::Reply;
    /** Job id to stream (valid when action == Watch). */
    std::string watch_id;
    /** Drain budget requested by a shutdown op. */
    double drain_sec = 0.0;
};

/**
 * Parse and execute one request line against `server`. Never throws:
 * every failure becomes an {"ok":false,...} response. Shutdown requests
 * are only honoured when `allow_shutdown` is set (the transport decides
 * who may stop the daemon); otherwise they are rejected like any other
 * bad request.
 */
RequestOutcome handle_request(Server &server, const std::string &line,
                              bool allow_shutdown);

/** One job snapshot rendered as a single-line JSON object. */
std::string status_json(const JobStatusSnapshot &snap);

/** @name Client-side request builders (single line, no newline) @{ */
std::string make_submit_request(const core::RunSpec &spec);
std::string make_status_request(const std::string &id);
std::string make_jobs_request();
std::string make_cancel_request(const std::string &id);
std::string make_result_request(const std::string &id);
std::string make_watch_request(const std::string &id);
std::string make_health_request();
std::string make_metrics_request();
std::string make_events_request(std::uint64_t since = 0,
                                std::size_t limit = 64);
std::string make_shutdown_request(double drain_sec);
/** @} */

} // namespace elv::srv
