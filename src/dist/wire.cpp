#include "dist/wire.hpp"

#include "common/record_log.hpp"
#include "core/checkpoint.hpp"
#include "obs/json.hpp"

namespace elv::dist {

std::string
make_configure(const core::RunSpec &spec, int threads,
               std::uint64_t fingerprint, int crash_after)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("op", "configure");
    json.kv("protocol", kProtocolVersion);
    json.key("spec").raw(spec.to_json());
    json.kv("threads", threads);
    json.kv("fp", fingerprint_to_hex(fingerprint));
    json.kv("crash_after", crash_after);
    json.end_object();
    return json.str();
}

std::string
make_stage_request(const std::string &stage,
                   const std::vector<int> &indices)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("op", stage);
    json.key("indices").begin_array();
    for (int index : indices)
        json.value(index);
    json.end_array();
    json.end_object();
    return json.str();
}

std::string
make_shutdown()
{
    return "{\"op\":\"shutdown\"}";
}

std::string
make_ready(std::uint64_t fingerprint)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ev", "ready");
    json.kv("protocol", kProtocolVersion);
    json.kv("fp", fingerprint_to_hex(fingerprint));
    json.end_object();
    return json.str();
}

std::string
make_cnr_record(int index, const core::CandidateCnr &cnr)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ev", "cnr");
    json.kv("i", index);
    json.kv("cnr", core::double_to_hex(cnr.cnr));
    json.kv("execs", cnr.executions);
    // Written as every earlier build wrote them, so either build's
    // coordinator reads either build's workers.
    json.kv("degraded", false);
    json.kv("retries", 0);
    json.end_object();
    return json.str();
}

std::string
make_repcap_record(int index, const core::CandidateRepCap &repcap)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ev", "repcap");
    json.kv("i", index);
    json.kv("repcap", core::double_to_hex(repcap.repcap));
    json.kv("execs", repcap.executions);
    json.end_object();
    return json.str();
}

std::string
make_stage_done(const std::string &stage, std::size_t count)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ev", "done");
    json.kv("op", stage);
    json.kv("n", static_cast<std::uint64_t>(count));
    json.end_object();
    return json.str();
}

std::string
make_error(const std::string &message)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ev", "error");
    json.kv("message", message);
    json.end_object();
    return json.str();
}

std::string
make_bye()
{
    return "{\"ev\":\"bye\"}";
}

namespace {

/** Read a hexfloat-encoded double member; false when absent/bad. */
bool
read_hex_double(const obs::JsonValue &value, const char *key, double &out)
{
    const obs::JsonValue *member = value.get(key);
    if (!member || !member->is_string())
        return false;
    return core::try_double_from_hex(member->text, out);
}

} // namespace

bool
parse_worker_event(const std::string &line, WorkerEvent &out,
                   std::string &error)
{
    obs::JsonValue value;
    if (!obs::json_parse(line, value, error))
        return false;
    const obs::JsonValue *ev = value.get("ev");
    if (!ev || !ev->is_string()) {
        error = "worker event without \"ev\"";
        return false;
    }
    out = WorkerEvent{};
    if (ev->text == "ready") {
        out.kind = WorkerEvent::Kind::Ready;
        const obs::JsonValue *protocol = value.get("protocol");
        if (!protocol ||
            protocol->as_integer<int>() != kProtocolVersion) {
            error = "worker speaks an incompatible protocol version";
            return false;
        }
        const obs::JsonValue *fp = value.get("fp");
        if (!fp ||
            !fingerprint_from_hex(fp->as_string(), out.fingerprint)) {
            error = "ready event without a valid fingerprint";
            return false;
        }
        return true;
    }
    if (ev->text == "cnr") {
        out.kind = WorkerEvent::Kind::Cnr;
        // "retries" is always 0; it is still range-checked like
        // every integer field of the line.
        std::uint64_t retries = 0;
        if (!value.get("i") || !value.read("i", out.index, error) ||
            !read_hex_double(value, "cnr", out.cnr.cnr) ||
            !value.read("execs", out.cnr.executions, error) ||
            !value.read("retries", retries, error)) {
            error = "malformed cnr record";
            return false;
        }
        return true;
    }
    if (ev->text == "repcap") {
        out.kind = WorkerEvent::Kind::RepCap;
        if (!value.get("i") || !value.read("i", out.index, error) ||
            !read_hex_double(value, "repcap", out.repcap.repcap) ||
            !value.read("execs", out.repcap.executions, error)) {
            error = "malformed repcap record";
            return false;
        }
        return true;
    }
    if (ev->text == "done") {
        out.kind = WorkerEvent::Kind::Done;
        out.stage = value.get("op") ? value.get("op")->as_string() : "";
        return value.read("n", out.count, error);
    }
    if (ev->text == "error") {
        out.kind = WorkerEvent::Kind::Error;
        out.message = value.get("message")
                          ? value.get("message")->as_string()
                          : "unspecified worker error";
        return true;
    }
    if (ev->text == "bye") {
        out.kind = WorkerEvent::Kind::Bye;
        return true;
    }
    error = "unknown worker event \"" + ev->text + "\"";
    return false;
}

bool
parse_coord_request(const std::string &line, CoordRequest &out,
                    std::string &error)
{
    obs::JsonValue value;
    if (!obs::json_parse(line, value, error))
        return false;
    const obs::JsonValue *op = value.get("op");
    if (!op || !op->is_string()) {
        error = "request without \"op\"";
        return false;
    }
    out = CoordRequest{};
    if (op->text == "configure") {
        out.kind = CoordRequest::Kind::Configure;
        const obs::JsonValue *protocol = value.get("protocol");
        if (!protocol || protocol->as_integer<int>() != kProtocolVersion) {
            error = "coordinator speaks an incompatible protocol "
                    "version";
            return false;
        }
        const obs::JsonValue *spec = value.get("spec");
        if (!spec) {
            error = "configure without a \"spec\"";
            return false;
        }
        if (!core::RunSpec::from_json(*spec, out.spec, error))
            return false;
        if (!value.read("threads", out.threads, error) ||
            !value.read("crash_after", out.crash_after, error))
            return false;
        const obs::JsonValue *fp = value.get("fp");
        if (!fp ||
            !fingerprint_from_hex(fp->as_string(), out.fingerprint)) {
            error = "configure without a valid fingerprint";
            return false;
        }
        return true;
    }
    if (op->text == "cnr" || op->text == "repcap") {
        out.kind = CoordRequest::Kind::Stage;
        out.stage = op->text;
        const obs::JsonValue *indices = value.get("indices");
        if (!indices ||
            indices->kind != obs::JsonValue::Kind::Array) {
            error = "stage request without an indices array";
            return false;
        }
        out.indices.reserve(indices->items.size());
        for (const obs::JsonValue &item : indices->items) {
            const std::optional<int> index = item.as_integer<int>();
            if (!index) {
                error = "candidate index is not an int";
                return false;
            }
            out.indices.push_back(*index);
        }
        return true;
    }
    if (op->text == "shutdown") {
        out.kind = CoordRequest::Kind::Shutdown;
        return true;
    }
    error = "unknown request \"" + op->text + "\"";
    return false;
}

} // namespace elv::dist
