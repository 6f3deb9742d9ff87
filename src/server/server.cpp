#include "server/server.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <optional>
#include <sstream>

#include "circuit/serialize.hpp"
#include "common/file_write.hpp"
#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/run_report.hpp"
#include "device/device.hpp"
#include "dist/coordinator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/cpu_features.hpp"

namespace elv::srv {

namespace {

/** Manifest header line (format version 1). */
constexpr const char *kManifestHeader = "elv-server-manifest 1";

/** Retry-after reported on rejected submissions before any job has
 *  completed, and the floor of every later estimate (ms). */
constexpr double kRetryAfterFloorMs = 1000.0;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Microseconds since `start` — trace-span timestamps. */
double
us_since(std::chrono::steady_clock::time_point start)
{
    return seconds_since(start) * 1e6;
}

/** Job-duration histogram edges (seconds). */
const std::vector<double> &
job_seconds_edges()
{
    static const std::vector<double> edges{0.01, 0.05, 0.1,  0.5,  1.0,
                                           5.0,  15.0, 60.0, 300.0};
    return edges;
}

bool
known_benchmark(const std::string &name)
{
    for (const auto &spec : qml::benchmark_table())
        if (spec.name == name)
            return true;
    return false;
}

bool
known_device(const std::string &name)
{
    for (const auto &entry : dev::device_catalog())
        if (entry == name)
            return true;
    return false;
}

} // namespace

void
ServerConfig::check() const
{
    if (data_dir.empty())
        elv::fatal("server needs a data directory");
    if (queue_capacity < 1)
        elv::fatal("server queue capacity must be >= 1");
    if (workers < 1)
        elv::fatal("server needs at least one worker");
    if (thread_budget < 0)
        elv::fatal("server thread budget must be >= 0");
}

Server::Server(const ServerConfig &config)
    : config_(config),
      manifest_(config.data_dir + "/jobs.manifest", kManifestHeader),
      start_time_(std::chrono::steady_clock::now())
{
    config_.check();
    thread_budget_ = config_.thread_budget > 0
                         ? config_.thread_budget
                         : par::ThreadPool::hardware_threads();
    std::filesystem::create_directories(config_.data_dir);
    if (config_.metrics)
        obs::Registry::global().set_enabled(true);
    recover_from_manifest();
    workers_.reserve(static_cast<std::size_t>(config_.workers));
    for (int w = 0; w < config_.workers; ++w)
        workers_.emplace_back([this] { worker_loop(); });
}

Server::~Server()
{
    stop_hard();
}

std::string
Server::job_path(const std::string &id, const char *suffix) const
{
    return config_.data_dir + "/" + id + suffix;
}

void
Server::bump_epoch_locked()
{
    ++epoch_;
    cv_.notify_all();
}

void
Server::record_state_locked(JobRecord &rec, JobState state,
                            const std::string &detail)
{
    rec.state = state;
    rec.detail = detail;
    std::string body = std::string("state ") + rec.id + " " +
                       job_state_name(state);
    if (!detail.empty())
        body += " " + detail;
    manifest_.append(body);
    bump_epoch_locked();
}

void
Server::recover_from_manifest()
{
    struct Recovered
    {
        core::RunSpec spec;
        JobState state = JobState::Queued;
        std::string detail;
    };
    std::map<std::uint64_t, Recovered> seen;

    auto parse_line = [&](const std::string &body) -> bool {
        std::istringstream ls(body);
        std::string keyword, id;
        ls >> keyword >> id;
        std::uint64_t number = 0;
        const char *last = id.data() + id.size();
        if (id.rfind("job-", 0) != 0 ||
            std::from_chars(id.data() + 4, last, number).ptr != last ||
            number == 0)
            return false;
        if (keyword == "job") {
            std::string spec_json;
            std::getline(ls >> std::ws, spec_json);
            obs::JsonValue value;
            std::string error;
            core::RunSpec spec;
            if (!obs::json_parse(spec_json, value, error) ||
                !core::RunSpec::from_json(value, spec, error))
                return false;
            seen[number].spec = spec;
            return true;
        }
        if (keyword == "state") {
            // A job's state never precedes its spec line.
            std::string name, detail;
            ls >> name;
            std::getline(ls >> std::ws, detail);
            const auto state = job_state_from_name(name);
            const auto it = seen.find(number);
            if (!state || it == seen.end())
                return false;
            it->second.state = *state;
            it->second.detail = detail;
            return true;
        }
        return false;
    };

    // The manifest is the only record of accepted jobs, so one written
    // by another format version is refused, never discarded.
    if (const auto other = manifest_.load(parse_line))
        elv::fatal("manifest " + manifest_.path() + " has header '" +
                   *other + "' from another build; this build reads '" +
                   kManifestHeader + "' and will not rewrite it");

    for (auto &[number, r] : seen) {
        auto rec = std::make_shared<JobRecord>();
        rec->number = number;
        rec->id = "job-" + std::to_string(number);
        rec->spec = r.spec;
        rec->token = std::make_shared<elv::CancelToken>();
        next_number_ = std::max(next_number_, number + 1);
        if (job_state_terminal(r.state)) {
            rec->state = r.state;
            rec->detail = r.detail;
            if (r.state == JobState::Completed) {
                // Status fields like best_score live in the result
                // document, not the manifest; rehydrate them.
                const std::optional<std::string> doc =
                    elv::read_file(job_path(rec->id, ".result.json"));
                obs::JsonValue value;
                std::string error;
                if (doc && obs::json_parse(*doc, value, error)) {
                    if (const obs::JsonValue *v = value.get("best_score"))
                        rec->best_score = v->as_number(0.0);
                    if (const obs::JsonValue *v = value.get("resumed"))
                        rec->search_resumed = v->as_bool(false);
                }
            }
        } else {
            // Interrupted mid-queue or mid-run: re-queue. The job's
            // checkpoint journal replays everything it completed, so
            // the re-run is a resume, not a restart.
            rec->state = JobState::Queued;
            rec->recovered = true;
            rec->detail = "recovered after restart";
            rec->submitted_at = std::chrono::steady_clock::now();
            rec->trace = std::make_shared<obs::SpanLog>();
            queue_.push_back(rec);
            ELV_METRIC_GAUGE_ADD("server.queue.depth", 1);
            ++recovered_;
            events_.emit("job.admitted", rec->id,
                         "recovered after restart");
        }
        records_[number] = rec;
    }
    if (recovered_ > 0)
        elv::inform("server: recovered " + std::to_string(recovered_) +
                    " interrupted job(s) from " + manifest_.path());
    std::sort(queue_.begin(), queue_.end(),
              [](const RecordPtr &a, const RecordPtr &b) {
                  return a->number < b->number;
              });
    note_ladder_locked();
}

int
Server::quota_for_depth_locked(std::size_t depth) const
{
    int quota = std::max(1, thread_budget_ / config_.workers);
    // Ladder step 1: under backlog pressure every job runs narrower,
    // trading single-job latency for queue drain rate.
    if (depth * 4 >= config_.queue_capacity * 3)
        return 1;
    if (depth * 2 >= config_.queue_capacity)
        quota = std::max(1, quota / 2);
    return quota;
}

void
Server::note_ladder_locked()
{
    // Mirrors the quota thresholds in quota_for_depth_locked; kept as
    // a rung index so the event stream shows each transition once.
    const std::size_t depth = queue_.size();
    int level = 0;
    if (depth * 4 >= config_.queue_capacity * 3)
        level = 2;
    else if (depth * 2 >= config_.queue_capacity)
        level = 1;
    if (level == ladder_level_)
        return;
    static constexpr const char *kRungs[] = {"full-quota", "half-quota",
                                             "min-quota"};
    events_.emit("ladder.level", "",
                 std::string(kRungs[ladder_level_]) + " -> " +
                     kRungs[level] + " (queue " +
                     std::to_string(depth) + "/" +
                     std::to_string(config_.queue_capacity) + ")");
    ladder_level_ = level;
}

double
Server::retry_after_estimate_locked() const
{
    const double per_job =
        job_ms_ewma_ > 0.0 ? job_ms_ewma_ : kRetryAfterFloorMs;
    const double backlog =
        static_cast<double>(queue_.size() + 1) /
        static_cast<double>(config_.workers);
    return std::max(kRetryAfterFloorMs, per_job * backlog);
}

SubmitOutcome
Server::submit(const core::RunSpec &spec)
{
    SubmitOutcome outcome;
    try {
        spec.check();
    } catch (const elv::UsageError &e) {
        outcome.error = e.what();
        return outcome;
    }
    if (!known_benchmark(spec.benchmark)) {
        outcome.error = "unknown benchmark: " + spec.benchmark;
        return outcome;
    }
    if (!known_device(spec.device)) {
        outcome.error = "unknown device: " + spec.device;
        return outcome;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || stopping_) {
        outcome.error = "server is draining";
        outcome.retry_after_ms = kRetryAfterFloorMs;
        ELV_METRIC_COUNT("server.jobs.rejected");
        ++rejected_;
        events_.emit("job.rejected", "", outcome.error);
        return outcome;
    }
    if (queue_.size() >= config_.queue_capacity) {
        // Ladder step 3: a higher-priority arrival may displace the
        // lowest-priority queued job — explicitly, with a Rejected
        // state the shed job's owner can observe.
        auto lowest = std::min_element(
            queue_.begin(), queue_.end(),
            [](const RecordPtr &a, const RecordPtr &b) {
                if (a->spec.priority != b->spec.priority)
                    return a->spec.priority < b->spec.priority;
                return a->number > b->number; // shed the newest
            });
        if (lowest != queue_.end() &&
            (*lowest)->spec.priority < spec.priority) {
            const RecordPtr shed = *lowest;
            queue_.erase(lowest);
            ELV_METRIC_GAUGE_ADD("server.queue.depth", -1);
            record_state_locked(
                *shed, JobState::Rejected,
                "shed under overload by a higher-priority job");
            ++shed_;
            ELV_METRIC_COUNT("server.jobs.shed");
            events_.emit("job.shed", shed->id,
                         "displaced by a priority-" +
                             std::to_string(spec.priority) +
                             " submission");
        } else {
            // Ladder step 2: plain admission rejection. No record is
            // allocated, so a submission flood cannot grow memory.
            outcome.error = "queue full";
            outcome.retry_after_ms = retry_after_estimate_locked();
            ++rejected_;
            ELV_METRIC_COUNT("server.jobs.rejected");
            events_.emit("job.rejected", "", outcome.error);
            return outcome;
        }
    }

    auto rec = std::make_shared<JobRecord>();
    rec->number = next_number_++;
    rec->id = "job-" + std::to_string(rec->number);
    rec->spec = spec;
    rec->token = std::make_shared<elv::CancelToken>();
    rec->submitted_at = std::chrono::steady_clock::now();
    rec->trace = std::make_shared<obs::SpanLog>();
    manifest_.append("job " + rec->id + " " + spec.to_json());
    records_[rec->number] = rec;
    queue_.push_back(rec);
    ++submitted_;
    ELV_METRIC_COUNT("server.jobs.submitted");
    ELV_METRIC_GAUGE_ADD("server.queue.depth", 1);
    events_.emit("job.admitted", rec->id,
                 "priority=" + std::to_string(spec.priority) +
                     " depth=" + std::to_string(queue_.size()) + "/" +
                     std::to_string(config_.queue_capacity));
    note_ladder_locked();
    bump_epoch_locked();

    outcome.accepted = true;
    outcome.id = rec->id;
    return outcome;
}

Server::RecordPtr
Server::pop_best_locked()
{
    auto best = std::max_element(
        queue_.begin(), queue_.end(),
        [](const RecordPtr &a, const RecordPtr &b) {
            if (a->spec.priority != b->spec.priority)
                return a->spec.priority < b->spec.priority;
            return a->number > b->number; // FIFO within a priority
        });
    RecordPtr rec = *best;
    queue_.erase(best);
    ELV_METRIC_GAUGE_ADD("server.queue.depth", -1);
    return rec;
}

void
Server::worker_loop()
{
    while (true) {
        RecordPtr rec;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] {
                return stopping_ || (!draining_ && !queue_.empty());
            });
            if (stopping_)
                return;
            rec = pop_best_locked();
            const int quota = quota_for_depth_locked(queue_.size());
            rec->thread_quota = quota;
            rec->state = JobState::Running;
            manifest_.append("state " + rec->id + " running");
            ++running_;
            threads_in_use_ += quota;
            ELV_METRIC_GAUGE_ADD("server.jobs.running", 1);
            events_.emit("job.started", rec->id,
                         "quota=" + std::to_string(quota));
            note_ladder_locked();
            bump_epoch_locked();
        }

        run_job(rec);
    }
}

void
Server::run_job(const RecordPtr &rec)
{
    const auto job_start = std::chrono::steady_clock::now();
    const std::shared_ptr<elv::CancelToken> token = rec->token;
    token->set_deadline_after(rec->spec.deadline_sec);

    // Trace timeline: µs since admission, so the queue-wait span
    // starts at t=0 and the run picks up where it ends.
    const double run_start_us = us_since(rec->submitted_at);
    rec->trace->add_span("queue.wait", "server", 0.0, run_start_us);
    ELV_METRIC_OBSERVE("server.queue.wait_seconds", job_seconds_edges(),
                       run_start_us / 1e6);

    JobState final_state = JobState::Completed;
    std::string detail;
    bool have_result = false;
    core::SearchResult result;
    std::optional<dist::DistStats> dist_stats;
    core::ElivagarConfig config;

    try {
        const qml::Benchmark bench = qml::make_benchmark(
            rec->spec.benchmark, rec->spec.seed, rec->spec.scale);
        const dev::Device device = dev::make_device(rec->spec.device);
        config = core::search_config(rec->spec, bench.spec,
                                     rec->thread_quota,
                                     job_path(rec->id, ".journal"));
        config.hooks.cancel = token;
        config.hooks.progress = [this, rec](const char *phase,
                                            std::size_t done,
                                            std::size_t total) {
            std::lock_guard<std::mutex> lock(mutex_);
            rec->phase = phase;
            rec->done = done;
            rec->total = total;
            if (rec->trace_phase != phase) {
                // Phase transition: close the open span, start the
                // next. Spans land in the job's own timeline.
                const double now_us = us_since(rec->submitted_at);
                if (!rec->trace_phase.empty())
                    rec->trace->add_span(
                        "phase." + rec->trace_phase, "search",
                        rec->trace_phase_start_us,
                        now_us - rec->trace_phase_start_us);
                rec->trace_phase = phase;
                rec->trace_phase_start_us = now_us;
            }
            bump_epoch_locked();
        };
        if (rec->spec.workers > 0) {
            // Distributed fan-out journals to the same job journal, so
            // an abandoned job resumes at any worker count, or none.
            dist::DistConfig dc;
            dc.workers = rec->spec.workers;
            dc.threads_per_worker =
                std::max(1, rec->thread_quota / rec->spec.workers);
            dc.coordinator_threads = std::max(1, rec->thread_quota);
            dc.checkpoint_path = config.checkpoint_path;
            dc.hooks = config.hooks;
            dist::DistResult out = dist::distributed_search(rec->spec, dc);
            result = std::move(out.result);
            dist_stats = out.stats;
        } else {
            result = core::elivagar_search(device, bench.train, config);
        }
        have_result = true;
    } catch (const elv::CancelledError &e) {
        // Deadline expiry and client cancel both land here: the job is
        // cancelled, not failed, and its journal keeps the finished
        // prefix for a possible future resubmission.
        final_state = JobState::Cancelled;
        detail = e.what();
    } catch (const std::exception &e) {
        final_state = JobState::Failed;
        detail = e.what();
    }

    const double end_us = us_since(rec->submitted_at);
    {
        // The progress hook mutates the open-phase fields under
        // mutex_; close the trailing span under the same lock.
        std::lock_guard<std::mutex> lock(mutex_);
        if (!rec->trace_phase.empty()) {
            rec->trace->add_span("phase." + rec->trace_phase, "search",
                                 rec->trace_phase_start_us,
                                 end_us - rec->trace_phase_start_us);
            rec->trace_phase.clear();
        }
    }
    rec->trace->add_span("job.run", "server", run_start_us,
                         end_us - run_start_us);
    const int nominal_quota =
        std::max(1, thread_budget_ / config_.workers);
    if (rec->thread_quota < nominal_quota) {
        // Degradation span: the overload ladder narrowed this job, so
        // "why was it slow" is visible in the artifact itself (arg =
        // granted quota).
        rec->trace->add_span("quota.degraded", "server", run_start_us,
                             end_us - run_start_us, rec->thread_quota,
                             true);
    }
    const bool trace_ok =
        rec->trace->write(job_path(rec->id, ".trace.json"));
    ELV_METRIC_OBSERVE("server.job.seconds", job_seconds_edges(),
                       (end_us - run_start_us) / 1e6);

    double best_score = 0.0;
    if (have_result) {
        best_score = result.best_score;
        obs::JsonWriter json;
        json.begin_object();
        json.kv("id", rec->id);
        json.kv("benchmark", rec->spec.benchmark);
        json.kv("device", rec->spec.device);
        json.kv("seed", static_cast<std::uint64_t>(rec->spec.seed));
        json.kv("candidates", rec->spec.candidates);
        json.kv("best_score", result.best_score);
        // Hexfloat survives the JSON round-trip bit-exactly; this is
        // what the crash-recovery smoke test compares.
        json.kv("best_score_hex",
                core::double_to_hex(result.best_score));
        json.kv("survivors", result.survivors);
        json.kv("cnr_executions", result.cnr_executions);
        json.kv("repcap_executions", result.repcap_executions);
        json.kv("resumed", result.resumed);
        json.kv("total_seconds", result.total_seconds);
        // Execution provenance: which kernel tier this result was
        // computed with, so artifacts from mixed fleets stay
        // self-describing.
        json.kv("kernel_dispatch",
                sim::kernel_tier_name(sim::active_tier()));
        if (trace_ok)
            json.kv("trace", job_path(rec->id, ".trace.json"));
        json.kv("circuit", circ::to_text_line(result.best_circuit));
        if (dist_stats) {
            // The fan-out record of a job with workers: which shards
            // ran remotely and which fell back in-process.
            json.key("dist").begin_object();
            json.kv("workers_spawned", dist_stats->workers_spawned);
            json.kv("workers_attached", dist_stats->workers_attached);
            json.kv("shards", dist_stats->shards);
            json.kv("shards_reissued", dist_stats->shards_reissued);
            json.kv("worker_failures", dist_stats->worker_failures);
            json.kv("records_received", dist_stats->records_received);
            json.kv("fallback_records", dist_stats->fallback_records);
            json.end_object();
        }
        json.end_object();
        if (!elv::write_file_atomic(job_path(rec->id, ".result.json"),
                                    json.str() + "\n"))
            elv::warn("cannot write result for " + rec->id);
        core::write_run_report(job_path(rec->id, ".report.json"),
                               config, result);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    // Release the quota in the critical section that records the job's
    // state, so a client that sees the state also sees the threads
    // free.
    --running_;
    threads_in_use_ -= rec->thread_quota;
    ELV_METRIC_GAUGE_ADD("server.jobs.running", -1);
    const double ms = seconds_since(job_start) * 1000.0;
    job_ms_ewma_ =
        job_ms_ewma_ <= 0.0 ? ms : 0.7 * job_ms_ewma_ + 0.3 * ms;
    rec->phase.clear();
    rec->trace_written = trace_ok;
    if (rec->abandoned) {
        // Shutdown interrupted the job; its manifest state still reads
        // "running", so the next start re-queues and resumes it. No
        // terminal record — this is the crash-equivalent path.
        rec->state = JobState::Queued;
        rec->detail = "interrupted by shutdown";
        bump_epoch_locked();
        return;
    }
    if (have_result) {
        rec->best_score = best_score;
        rec->search_resumed = result.resumed;
        record_state_locked(*rec, JobState::Completed, "");
        ++completed_;
        ELV_METRIC_COUNT("server.jobs.completed");
        if (result.resumed)
            ELV_METRIC_COUNT("server.jobs.resumed");
        events_.emit("job.finished", rec->id, "completed");
        return;
    }
    record_state_locked(*rec, final_state, detail);
    if (final_state == JobState::Cancelled) {
        ++cancelled_;
        ELV_METRIC_COUNT("server.jobs.cancelled");
    } else {
        ++failed_;
        ELV_METRIC_COUNT("server.jobs.failed");
    }
    events_.emit("job.finished", rec->id,
                 std::string(job_state_name(final_state)) +
                     (detail.empty() ? "" : ": " + detail));
}

JobStatusSnapshot
Server::snapshot_locked(const JobRecord &rec) const
{
    JobStatusSnapshot snap;
    snap.id = rec.id;
    snap.spec = rec.spec;
    snap.state = rec.state;
    snap.phase = rec.phase;
    snap.done = rec.done;
    snap.total = rec.total;
    snap.detail = rec.detail;
    snap.thread_quota = rec.thread_quota;
    snap.recovered = rec.recovered;
    snap.search_resumed = rec.search_resumed;
    snap.best_score = rec.best_score;
    if (rec.trace_written)
        snap.trace_path = job_path(rec.id, ".trace.json");
    return snap;
}

std::optional<JobStatusSnapshot>
Server::status(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[number, rec] : records_)
        if (rec->id == id)
            return snapshot_locked(*rec);
    return std::nullopt;
}

std::vector<JobStatusSnapshot>
Server::jobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JobStatusSnapshot> out;
    out.reserve(records_.size());
    for (const auto &[number, rec] : records_)
        out.push_back(snapshot_locked(*rec));
    return out;
}

bool
Server::cancel(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[number, rec] : records_) {
        if (rec->id != id)
            continue;
        if (job_state_terminal(rec->state))
            return true; // idempotent
        rec->token->cancel();
        if (rec->state == JobState::Queued) {
            queue_.erase(std::remove(queue_.begin(), queue_.end(), rec),
                         queue_.end());
            record_state_locked(*rec, JobState::Cancelled,
                                "cancelled before start");
            ++cancelled_;
            ELV_METRIC_COUNT("server.jobs.cancelled");
            ELV_METRIC_GAUGE_ADD("server.queue.depth", -1);
            events_.emit("job.finished", rec->id,
                         "cancelled before start");
            note_ladder_locked();
        }
        // A running job unwinds at its next cancellation checkpoint;
        // its worker records the terminal state.
        return true;
    }
    return false;
}

std::optional<std::string>
Server::result_json(const std::string &id) const
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bool completed = false;
        for (const auto &[number, rec] : records_)
            if (rec->id == id)
                completed = rec->state == JobState::Completed;
        if (!completed)
            return std::nullopt;
    }
    std::optional<std::string> doc =
        elv::read_file(job_path(id, ".result.json"));
    while (doc && !doc->empty() &&
           (doc->back() == '\n' || doc->back() == '\r'))
        doc->pop_back();
    return doc;
}

std::string
Server::health_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    obs::JsonWriter json;
    json.begin_object();
    json.kv("state", stopping_   ? "stopped"
                     : draining_ ? "draining"
                                 : "serving");
    json.kv("uptime_sec", seconds_since(start_time_));
    json.kv("queue_depth", static_cast<std::uint64_t>(queue_.size()));
    json.kv("queue_capacity",
            static_cast<std::uint64_t>(config_.queue_capacity));
    json.kv("running", running_);
    json.kv("workers", config_.workers);
    json.kv("thread_budget", thread_budget_);
    json.kv("threads_in_use", threads_in_use_);
    json.key("jobs").begin_object();
    json.kv("submitted", submitted_);
    json.kv("completed", completed_);
    json.kv("failed", failed_);
    json.kv("cancelled", cancelled_);
    json.kv("rejected", rejected_);
    json.kv("shed", shed_);
    json.kv("recovered", recovered_);
    json.end_object();
    json.end_object();
    return json.str();
}

std::string
Server::metrics_json() const
{
    obs::JsonWriter json;
    json.begin_object();
    json.key("health").raw(health_json());

    const obs::MetricsSnapshot snap =
        obs::Registry::global().snapshot();
    json.key("metrics").begin_object();
    json.kv("enabled", obs::Registry::global().enabled());
    json.key("counters").begin_object();
    for (const auto &counter : snap.counters)
        json.kv(counter.name, counter.value);
    json.end_object();
    json.key("gauges").begin_object();
    for (const auto &gauge : snap.gauges) {
        json.key(gauge.name).begin_object();
        json.kv("value", gauge.value);
        json.kv("max", gauge.max);
        json.end_object();
    }
    json.end_object();
    json.end_object();

    json.end_object();
    return json.str();
}

std::string
Server::events_json(std::uint64_t cursor, std::size_t limit) const
{
    const obs::EventSlice slice = events_.since(cursor, limit);
    obs::JsonWriter json;
    json.begin_object();
    json.kv("first_seq", slice.first_seq);
    json.kv("last_seq", slice.last_seq);
    json.key("events").begin_array();
    for (const obs::Event &event : slice.events) {
        json.begin_object();
        json.kv("seq", event.seq);
        json.kv("wall_ms", event.wall_ms);
        json.kv("kind", event.kind);
        if (!event.subject.empty())
            json.kv("id", event.subject);
        if (!event.detail.empty())
            json.kv("detail", event.detail);
        json.end_object();
    }
    json.end_array();
    json.end_object();
    return json.str();
}

void
Server::drain(double deadline_sec)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_)
        return;
    draining_ = true;
    bump_epoch_locked();
    // In-flight jobs get the deadline; queued jobs stay queued (their
    // manifest state is non-terminal, so the next start picks them up).
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, deadline_sec)));
    cv_.wait_until(lock, deadline, [this] { return running_ == 0; });
    lock.unlock();
    stop_workers(true);
}

void
Server::stop_hard()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_)
            return;
        draining_ = true;
    }
    stop_workers(true);
}

void
Server::stop_workers(bool abandon_running)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_)
            return;
        stopping_ = true;
        if (abandon_running) {
            for (const auto &[number, rec] : records_) {
                if (rec->state == JobState::Running) {
                    rec->abandoned = true;
                    rec->token->cancel();
                }
            }
        }
        bump_epoch_locked();
    }
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    bump_epoch_locked();
}

std::uint64_t
Server::change_epoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return epoch_;
}

std::uint64_t
Server::wait_for_change(std::uint64_t last_seen,
                        double timeout_sec) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock,
                 std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(
                         std::max(0.0, timeout_sec))),
                 [&] { return epoch_ != last_seen || stopping_; });
    return epoch_;
}

int
Server::threads_in_use() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_in_use_;
}

bool
Server::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_ || stopping_;
}

} // namespace elv::srv
