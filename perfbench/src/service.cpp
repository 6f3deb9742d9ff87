/**
 * @file
 * The service-small-jobs workload and the server probe: an in-process
 * srv::Server behind srv::TcpServer on loopback, driven by closed-loop
 * srv::Client connections (submit -> watch until terminal -> result).
 */
#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include <unistd.h>

#include "core/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "server/protocol.hpp"
#include "server/tcp.hpp"

namespace perfbench {

namespace srv = elv::srv;

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kThreadBudget = 4;
/** Reply/stream deadline of one client read (seconds). */
constexpr double kReadTimeout = 120.0;

/** Server core + TCP transport on a loopback port, torn down in order. */
class Service
{
  public:
    Service(const std::string &data_dir, int workers, int thread_budget)
        : data_dir_(data_dir)
    {
        std::filesystem::remove_all(data_dir_);
        srv::ServerConfig config;
        config.data_dir = data_dir_;
        config.workers = workers;
        config.thread_budget = thread_budget;
        server_ = std::make_unique<srv::Server>(config);
        tcp_ = std::make_unique<srv::TcpServer>(*server_, srv::TcpConfig{});
        loop_ = std::thread([this] {
            try {
                tcp_->run();
            } catch (const std::exception &error) {
                std::fprintf(stderr, "tcp loop: %s\n", error.what());
            }
        });
    }

    ~Service()
    {
        tcp_->stop();
        loop_.join();
        tcp_.reset();
        server_.reset();
        std::error_code ignored;
        std::filesystem::remove_all(data_dir_, ignored);
    }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    std::uint16_t port() const { return tcp_->port(); }

  private:
    std::string data_dir_;
    std::unique_ptr<srv::Server> server_;
    std::unique_ptr<srv::TcpServer> tcp_;
    std::thread loop_;
};

/** Client-side timings of one job (seconds; NaN = not observed). */
struct JobTiming
{
    std::uint64_t index = 0;
    bool ok = false;
    std::string error;
    double submit_rtt = NAN, status_rtt = NAN, queue_wait = NAN;
    /** Submit sent -> terminal status line received. */
    double latency = NAN;
    /** Submit sent -> result received (one closed-loop op). */
    double op = NAN;
    /** The result's total_seconds (server-side search time). */
    double search = NAN;
    double done_at = 0.0;
    std::string best_score_hex;
};

bool
parse(const std::string &line, srv::JsonValue &out)
{
    std::string error;
    return srv::json_parse(line, out, error) && out.is_object();
}

/** Request with one reply line; false + `error` unless "ok":true. */
bool
roundtrip(srv::Client &client, const std::string &request,
          srv::JsonValue &reply, std::string &error)
{
    std::string line;
    if (!client.send_line(request, error) ||
        !client.read_line(line, error, kReadTimeout))
        return false;
    if (!parse(line, reply) || !reply.get("ok") ||
        !reply.get("ok")->as_bool()) {
        error = "request refused: " + line;
        return false;
    }
    return true;
}

/** submit -> [status] -> watch until terminal -> result. */
JobTiming
run_job(srv::Client &client, const srv::JobSpec &spec, std::uint64_t index,
        bool measure_status, SpanLog &spans)
{
    JobTiming t;
    t.index = index;
    SpanLog::Scope job_span(spans, "job", index + 1);
    srv::JsonValue reply;
    std::string id;
    {
        SpanLog::Scope span(spans, "server.submit");
        if (!roundtrip(client, srv::make_submit_request(spec), reply,
                       t.error))
            return t;
        t.submit_rtt = span.elapsed();
        id = reply.get("id") ? reply.get("id")->as_string() : "";
    }
    const double accepted = job_span.elapsed();
    if (measure_status) {
        SpanLog::Scope span(spans, "server.status");
        if (!roundtrip(client, srv::make_status_request(id), reply, t.error))
            return t;
        t.status_rtt = span.elapsed();
    }
    std::string state;
    {
        SpanLog::Scope span(spans, "server.watch");
        if (!roundtrip(client, srv::make_watch_request(id), reply, t.error))
            return t;
        std::string line;
        while (client.read_line(line, t.error, kReadTimeout)) {
            srv::JsonValue status;
            if (!parse(line, status) || !status.get("state"))
                continue;
            state = status.get("state")->as_string();
            if (state == "running" && std::isnan(t.queue_wait))
                t.queue_wait = job_span.elapsed() - accepted;
            const auto parsed = srv::job_state_from_name(state);
            if (parsed && srv::job_state_terminal(*parsed))
                break;
        }
        t.latency = job_span.elapsed();
    }
    if (state != "completed") {
        t.error = "job " + id + " ended " +
                  (state.empty() ? "without a terminal state" : state);
        return t;
    }
    {
        SpanLog::Scope span(spans, "server.result");
        if (!roundtrip(client, srv::make_result_request(id), reply, t.error))
            return t;
    }
    const srv::JsonValue *result = reply.get("result");
    if (!result || !result->get("best_score_hex")) {
        t.error = "job " + id + " result lacks best_score_hex";
        return t;
    }
    t.best_score_hex = result->get("best_score_hex")->as_string();
    t.search = result->get("total_seconds")
                   ? result->get("total_seconds")->as_number()
                   : NAN;
    t.op = job_span.elapsed();
    t.done_at = now_s();
    t.ok = true;
    return t;
}

/** Job `index` of the mix: moons three times in four, else mnist-4. */
srv::JobSpec
service_job(std::uint64_t seed, std::uint64_t index, bool smoke)
{
    srv::JobSpec job;
    if (index % 4 == 3) {
        job.benchmark = "mnist-4";
        job.device = "ibm_perth";
        job.scale = smoke ? 0.02 : 0.1;
    } else {
        job.benchmark = "moons";
        job.device = "ibm_lagos";
        job.scale = smoke ? 0.05 : 0.2;
    }
    job.candidates = smoke ? 4 : 16;
    job.seed = seed + index;
    return job;
}

/** Jobs whose results are checked against an in-process search. */
bool
checked_job(std::uint64_t index)
{
    return index < 8 || index % 32 == 0;
}

struct Window
{
    std::vector<JobTiming> jobs;
    double start = 0.0;
    double cpu = 0.0;
};

/**
 * Closed loop: `kClients` connections, each starting its next job when
 * the previous one's result arrives, until `seconds` have passed.
 */
Window
closed_loop(std::uint16_t port, const Options &options,
            std::uint64_t first_index, double seconds, bool measure_status,
            SpanLog &spans)
{
    Window window;
    std::mutex mutex;
    std::atomic<std::uint64_t> next{first_index};
    window.start = now_s();
    const double cpu0 = self_cpu_s();
    const double deadline = window.start + seconds;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&] {
            std::string error;
            srv::Client client("127.0.0.1", port, error);
            while (now_s() < deadline) {
                const std::uint64_t index = next.fetch_add(1);
                JobTiming t;
                t.index = index;
                if (!client.connected()) {
                    t.error = "cannot connect: " + error;
                } else {
                    try {
                        t = run_job(client,
                                    service_job(options.seed, index,
                                                options.smoke),
                                    index, measure_status, spans);
                    } catch (const std::exception &e) {
                        t.error = e.what();
                    }
                }
                std::lock_guard<std::mutex> lock(mutex);
                window.jobs.push_back(t);
                if (!t.ok)
                    break;
            }
        });
    for (std::thread &client : clients)
        client.join();
    window.cpu = self_cpu_s() - cpu0;
    std::sort(window.jobs.begin(), window.jobs.end(),
              [](const JobTiming &a, const JobTiming &b) {
                  return a.index < b.index;
              });
    return window;
}

std::vector<double>
collect(const std::vector<JobTiming> &jobs, double JobTiming::*field)
{
    std::vector<double> out;
    for (const JobTiming &t : jobs)
        if (t.ok && !std::isnan(t.*field))
            out.push_back(t.*field);
    return out;
}

/** op_ok / op_failed per job; returns the completed count. */
std::size_t
account(const Window &window, Report &report)
{
    std::size_t completed = 0;
    for (const JobTiming &t : window.jobs) {
        if (t.ok) {
            report.op_ok();
            ++completed;
        } else {
            report.op_failed("job " + std::to_string(t.index) + ": " +
                             t.error);
        }
    }
    return completed;
}

void
server_metrics(const std::vector<JobTiming> &jobs, Report &report)
{
    std::vector<double> overhead;
    for (const JobTiming &t : jobs)
        if (t.ok && !std::isnan(t.queue_wait))
            overhead.push_back(t.latency - t.queue_wait - t.search);
    report.add("server.submit_rtt_s",
               median(collect(jobs, &JobTiming::submit_rtt)), "s");
    report.add("server.status_rtt_s",
               median(collect(jobs, &JobTiming::status_rtt)), "s");
    report.add("server.queue_wait_s",
               median(collect(jobs, &JobTiming::queue_wait)), "s");
    report.add("server.search_s", median(collect(jobs, &JobTiming::search)),
               "s");
    report.add("server.overhead_s", median(overhead), "s");
}

std::string
data_dir(const Options &options, const std::string &what)
{
    return options.out_dir + "/" + what + "-" + options.workload + "-" +
           std::to_string(::getpid());
}

/** Server start -> first accepted submit, on a fresh data dir. */
double
service_setup(const Options &options, int k)
{
    const double start = now_s();
    Service service(data_dir(options, "setup" + std::to_string(k)),
                    kWorkers, kThreadBudget);
    std::string error;
    srv::Client client("127.0.0.1", service.port(), error);
    srv::JsonValue reply;
    if (!client.connected() ||
        !roundtrip(client,
                   srv::make_submit_request(
                       service_job(options.seed, 0, options.smoke)),
                   reply, error))
        throw std::runtime_error("service set-up failed: " + error);
    return now_s() - start;
}

/** In-process elivagar_search of the checked jobs, after the window. */
void
check_against_in_process(const Options &options, const Window &window,
                         Report &report)
{
    SpanLog quiet(false);
    std::size_t checked = 0;
    for (const JobTiming &t : window.jobs) {
        if (!t.ok || !checked_job(t.index))
            continue;
        const srv::JobSpec job =
            service_job(options.seed, t.index, options.smoke);
        const Setup setup = make_setup(job, quiet);
        const auto found = elv::core::elivagar_search(
            setup.device, setup.bench.train,
            search_config(job, setup, kThreadBudget));
        const std::string hex = elv::core::double_to_hex(found.best_score);
        ++checked;
        if (hex != t.best_score_hex)
            report.check_failed("job " + std::to_string(t.index) +
                                ": best_score_hex " + t.best_score_hex +
                                " differs from in-process " + hex);
    }
    report.info("checked " + std::to_string(checked) + " of " +
                std::to_string(window.jobs.size()) +
                " jobs (jobs 0-7 and every 32nd) against in-process "
                "elivagar_search");
}

} // namespace

std::string
server_probe(const Options &options, const WorkloadSpec &spec,
             SpanLog &spans, Report &report)
{
    SpanLog::Scope probe_span(spans, "server_probe");
    Service service(data_dir(options, "probe"), 1, spec.threads);
    std::string error;
    srv::Client client("127.0.0.1", service.port(), error);
    JobTiming t;
    if (client.connected())
        t = run_job(client, spec.job, 0, true, spans);
    else
        t.error = "cannot connect: " + error;
    if (!t.ok) {
        report.op_failed("server probe: " + t.error);
        return "";
    }
    report.op_ok();
    server_metrics({t}, report);
    return t.best_score_hex;
}

void
run_service(const Options &options, Report &report)
{
    add_provenance(report, options, kThreadBudget, kClients);
    report.info("service " + std::to_string(kWorkers) + " workers, thread "
                "budget " + std::to_string(kThreadBudget) + ", " +
                std::to_string(kClients) + " closed-loop clients");
    SpanLog spans(options.trace);
    SpanLog quiet(false);

    std::vector<double> setup_times;
    for (int k = 0; k < 11; ++k)
        setup_times.push_back(service_setup(options, k));

    if (!options.trace) {
        Window window;
        {
            Service service(data_dir(options, "window"), kWorkers,
                            kThreadBudget);
            window = closed_loop(service.port(), options, 0, options.seconds,
                                 false, quiet);
        }
        const std::size_t completed = account(window, report);
        double end = window.start;
        for (const JobTiming &t : window.jobs)
            end = std::max(end, t.done_at);
        check_against_in_process(options, window, report);

        const auto latency = collect(window.jobs, &JobTiming::latency);
        report.add("run_s", median(collect(window.jobs, &JobTiming::op)), "s");
        report.add("search_s", median(collect(window.jobs, &JobTiming::search)),
                   "s");
        report.not_applicable("train_s", "s", "search-only jobs");
        report.not_applicable("eval_s", "s", "search-only jobs");
        report.add("cpu_s",
                   window.cpu / static_cast<double>(std::max<std::size_t>(
                                    1, completed)),
                   "s");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
        report.add("setup_s", median(setup_times), "s");
        const double p90 = quantile(latency, 0.9);
        report.add("job_p50_s", quantile(latency, 0.5), "s");
        report.add("job_p90_s", p90, "s");
        const auto beyond = static_cast<std::size_t>(std::count_if(
            latency.begin(), latency.end(),
            [p90](double v) { return v > p90; }));
        report.info("job latency samples " + std::to_string(latency.size()) +
                    ", " + std::to_string(beyond) + " beyond p90" +
                    (beyond < 10 ? " (fewer than 10: p90 is rough)" : ""));
        report.add("jobs_per_s",
                   end > window.start
                       ? static_cast<double>(completed) / (end - window.start)
                       : 0.0,
                   "1/s");
        report.print(kEndToEndMetrics);
        return;
    }

    // Traced run: half the window untraced (overhead baseline), half
    // traced with the library's counters on and a status probe per job.
    Window base, traced;
    {
        Service service(data_dir(options, "window"), kWorkers,
                        kThreadBudget);
        base = closed_loop(service.port(), options, 0, options.seconds / 2,
                           false, quiet);
        elv::obs::Registry::global().set_enabled(true);
        traced = closed_loop(service.port(), options, base.jobs.size(),
                             options.seconds / 2, true, spans);
    }
    account(base, report);
    account(traced, report);
    report.add("trace.overhead_s",
               median(collect(traced.jobs, &JobTiming::latency)) -
                   median(collect(base.jobs, &JobTiming::latency)),
               "s");
    server_metrics(traced.jobs, report);

    // The other layers, on job 0's search spec at the job thread quota.
    WorkloadSpec spec;
    spec.job = service_job(options.seed, 0, options.smoke);
    spec.threads = kThreadBudget / kWorkers;
    spec.epochs = 3;
    spec.dist_workers = 2;
    spec.dist_threads = 1;
    std::vector<double> unused;
    const Setup setup = repeated_setup(spec, spans, unused);
    const auto config = search_config(spec.job, setup, spec.threads);
    const double wall0 = now_s(), cpu0 = self_cpu_s();
    const auto reference = elv::core::elivagar_search(
        setup.device, setup.bench.train, config);
    const double ref_wall = now_s() - wall0, ref_cpu = self_cpu_s() - cpu0;
    std::optional<std::string> first;
    check_ranking(reference, ranking_digest(reference), first,
                  "in-process reference", report);
    if (!base.jobs.empty() && base.jobs.front().index == 0 &&
        base.jobs.front().best_score_hex !=
            elv::core::double_to_hex(reference.best_score))
        report.check_failed("job 0 best_score_hex differs from the "
                            "in-process search");
    const auto replayed = replay_search(setup.device, setup.bench.train,
                                        config, spans, report);
    report.op_ok();
    check_ranking(replayed, ranking_digest(replayed), first, "staged replay",
                  report);
    parallel_metrics(spans, ref_wall, ref_cpu, spec.threads, report);
    noise_probe(setup.device, reference, config, spans, report);
    qml_layer(setup, reference, spec, spans, report);
    setup_layer_metrics(spans, report);
    const auto distributed = dist_layer(spec, spans, report);
    report.op_ok();
    check_ranking(distributed, ranking_digest(distributed), first,
                  "distributed search", report);
    finish_trace(options, spans, report);
    report.print(kPerLayerMetrics);
}

} // namespace perfbench
