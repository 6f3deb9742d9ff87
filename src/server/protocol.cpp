#include "server/protocol.hpp"

#include "obs/json.hpp"

namespace elv::srv {

namespace {

std::string
error_response(const std::string &what)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ok", false);
    json.kv("error", what);
    json.end_object();
    return json.str();
}

std::string
require_id(const obs::JsonValue &request, std::string &id)
{
    const obs::JsonValue *value = request.get("id");
    if (!value || !value->is_string() || value->text.empty())
        return "request needs a job \"id\" string";
    id = value->text;
    return "";
}

std::string
handle_submit(Server &server, const obs::JsonValue &request)
{
    const obs::JsonValue *spec_value = request.get("spec");
    if (!spec_value)
        return error_response("submit needs a \"spec\" object");
    core::RunSpec spec;
    std::string error;
    if (!core::RunSpec::from_json(*spec_value, spec, error))
        return error_response(error);
    const SubmitOutcome outcome = server.submit(spec);
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ok", outcome.accepted);
    if (outcome.accepted) {
        json.kv("id", outcome.id);
    } else {
        json.kv("error", outcome.error);
        if (outcome.retry_after_ms > 0.0)
            json.kv("retry_after_ms", outcome.retry_after_ms);
    }
    json.end_object();
    return json.str();
}

std::string
handle_status(Server &server, const obs::JsonValue &request)
{
    std::string id;
    const std::string error = require_id(request, id);
    if (!error.empty())
        return error_response(error);
    const auto snap = server.status(id);
    if (!snap)
        return error_response("unknown job: " + id);
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ok", true);
    json.key("job").raw(status_json(*snap));
    json.end_object();
    return json.str();
}

std::string
handle_jobs(Server &server)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ok", true);
    json.key("jobs").begin_array();
    for (const auto &snap : server.jobs())
        json.raw(status_json(snap));
    json.end_array();
    json.end_object();
    return json.str();
}

std::string
handle_cancel(Server &server, const obs::JsonValue &request)
{
    std::string id;
    const std::string error = require_id(request, id);
    if (!error.empty())
        return error_response(error);
    if (!server.cancel(id))
        return error_response("unknown job: " + id);
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ok", true);
    json.kv("id", id);
    json.end_object();
    return json.str();
}

std::string
handle_result(Server &server, const obs::JsonValue &request)
{
    std::string id;
    const std::string error = require_id(request, id);
    if (!error.empty())
        return error_response(error);
    const auto doc = server.result_json(id);
    if (!doc)
        return error_response("no result for " + id +
                              " (not completed?)");
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ok", true);
    json.key("result").raw(*doc);
    json.end_object();
    return json.str();
}

std::string
wrap_document(const char *key, const std::string &doc)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ok", true);
    json.key(key).raw(doc);
    json.end_object();
    return json.str();
}

std::string
simple_request(const char *op)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("op", op);
    json.end_object();
    return json.str();
}

std::string
id_request(const char *op, const std::string &id)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("op", op);
    json.kv("id", id);
    json.end_object();
    return json.str();
}

} // namespace

std::string
status_json(const JobStatusSnapshot &snap)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("id", snap.id);
    json.kv("state", job_state_name(snap.state));
    json.key("spec").raw(snap.spec.to_json());
    if (!snap.phase.empty()) {
        json.kv("phase", snap.phase);
        json.kv("done", static_cast<std::uint64_t>(snap.done));
        json.kv("total", static_cast<std::uint64_t>(snap.total));
    }
    if (!snap.detail.empty())
        json.kv("detail", snap.detail);
    if (snap.thread_quota > 0)
        json.kv("thread_quota", snap.thread_quota);
    if (snap.recovered)
        json.kv("recovered", true);
    if (snap.search_resumed)
        json.kv("resumed", true);
    if (!snap.trace_path.empty())
        json.kv("trace", snap.trace_path);
    if (snap.state == JobState::Completed)
        json.kv("best_score", snap.best_score);
    json.end_object();
    return json.str();
}

RequestOutcome
handle_request(Server &server, const std::string &line,
               bool allow_shutdown)
{
    RequestOutcome outcome;
    obs::JsonValue request;
    std::string error;
    if (!obs::json_parse(line, request, error)) {
        outcome.response = error_response("bad request: " + error);
        return outcome;
    }
    const obs::JsonValue *op_value = request.get("op");
    if (!op_value || !op_value->is_string()) {
        outcome.response =
            error_response("request needs an \"op\" string");
        return outcome;
    }
    const std::string &op = op_value->text;

    if (op == "submit") {
        outcome.response = handle_submit(server, request);
    } else if (op == "status") {
        outcome.response = handle_status(server, request);
    } else if (op == "jobs") {
        outcome.response = handle_jobs(server);
    } else if (op == "cancel") {
        outcome.response = handle_cancel(server, request);
    } else if (op == "result") {
        outcome.response = handle_result(server, request);
    } else if (op == "health") {
        outcome.response = wrap_document("health", server.health_json());
    } else if (op == "metrics") {
        outcome.response =
            wrap_document("metrics", server.metrics_json());
    } else if (op == "events") {
        std::uint64_t since = 0;
        std::size_t limit = 64;
        if (!request.read("since", since, error) ||
            !request.read("limit", limit, error)) {
            outcome.response = error_response("events: " + error);
            return outcome;
        }
        outcome.response =
            wrap_document("events", server.events_json(since, limit));
    } else if (op == "watch") {
        std::string id;
        const std::string id_error = require_id(request, id);
        if (!id_error.empty()) {
            outcome.response = error_response(id_error);
            return outcome;
        }
        const auto snap = server.status(id);
        if (!snap) {
            outcome.response = error_response("unknown job: " + id);
            return outcome;
        }
        outcome.response = handle_status(server, request);
        outcome.action = RequestAction::Watch;
        outcome.watch_id = id;
    } else if (op == "shutdown") {
        if (!allow_shutdown) {
            outcome.response =
                error_response("shutdown is not allowed on this "
                               "connection");
            return outcome;
        }
        if (const obs::JsonValue *v = request.get("drain_sec"))
            outcome.drain_sec = v->as_number(0.0);
        obs::JsonWriter json;
        json.begin_object();
        json.kv("ok", true);
        json.kv("draining", true);
        json.end_object();
        outcome.response = json.str();
        outcome.action = RequestAction::Shutdown;
    } else {
        outcome.response = error_response("unknown op: " + op);
    }
    return outcome;
}

std::string
make_submit_request(const core::RunSpec &spec)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("op", "submit");
    json.key("spec").raw(spec.to_json());
    json.end_object();
    return json.str();
}

std::string
make_status_request(const std::string &id)
{
    return id_request("status", id);
}

std::string
make_jobs_request()
{
    return simple_request("jobs");
}

std::string
make_cancel_request(const std::string &id)
{
    return id_request("cancel", id);
}

std::string
make_result_request(const std::string &id)
{
    return id_request("result", id);
}

std::string
make_watch_request(const std::string &id)
{
    return id_request("watch", id);
}

std::string
make_health_request()
{
    return simple_request("health");
}

std::string
make_metrics_request()
{
    return simple_request("metrics");
}

std::string
make_events_request(std::uint64_t since, std::size_t limit)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("op", "events");
    json.kv("since", since);
    json.kv("limit", static_cast<std::uint64_t>(limit));
    json.end_object();
    return json.str();
}

std::string
make_shutdown_request(double drain_sec)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("op", "shutdown");
    json.kv("drain_sec", drain_sec);
    json.end_object();
    return json.str();
}

} // namespace elv::srv
