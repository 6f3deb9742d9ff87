/**
 * @file
 * The Elivagar search daemon: a long-running service that accepts
 * search jobs over line-delimited JSON on TCP, runs them with per-job
 * isolation (seed, thread quota, deadline), journals every job so a
 * `kill -9` at any instant loses nothing, and degrades gracefully
 * under overload instead of falling over.
 *
 * Usage:
 *   elivagar_server [--host A] [--port N] [--data-dir DIR]
 *                   [--capacity N] [--workers N] [--threads N]
 *                   [--drain-sec F] [--metrics] [--metrics-port N]
 *                   [--allow-remote-shutdown]
 *
 * --metrics-port opens a second, HTTP port serving GET /metrics
 * (Prometheus text exposition of the registry, with histogram
 * quantiles and EWMA counter rates) and GET /healthz — scrapers never
 * touch the JSON job protocol. It implies --metrics.
 *
 * Protocol (one JSON object per line; see src/server/protocol.hpp):
 *   {"op":"submit","spec":{"benchmark":"moons","candidates":16}}
 *   {"op":"status","id":"job-1"}   {"op":"cancel","id":"job-1"}
 *   {"op":"result","id":"job-1"}   {"op":"watch","id":"job-1"}
 *   {"op":"health"}                {"op":"metrics"}
 *
 * Shutdown: SIGTERM/SIGINT stop accepting work and drain in-flight
 * jobs for up to --drain-sec; jobs that miss the budget are cancelled
 * in-process but stay resumable — the next start re-queues them and
 * their searches resume from their checkpoint journals.
 */
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <memory>

#include "common/flag_number.hpp"
#include "common/logging.hpp"
#include "server/http.hpp"
#include "server/server.hpp"
#include "server/tcp.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void
on_signal(int signum)
{
    g_signal = signum;
}

struct DaemonOptions
{
    elv::srv::ServerConfig core;
    elv::srv::TcpConfig tcp;
    double drain_sec = 10.0;
    /** Prometheus scrape port; <0 = no HTTP endpoint. */
    int metrics_port = -1;
};

void
print_usage()
{
    std::printf(
        "usage: elivagar_server [options]\n"
        "  --host A           bind address (default 127.0.0.1)\n"
        "  --port N           TCP port; 0 picks a free one (default "
        "7421)\n"
        "  --data-dir DIR     manifest/journals/results directory "
        "(default elivagar-jobs)\n"
        "  --capacity N       queue bound, >= 1; beyond it submissions\n"
        "                     are rejected with retry-after (default 16)\n"
        "  --workers N        concurrent jobs, 1-1024 (default 1)\n"
        "  --threads N        simulator thread budget shared by jobs;\n"
        "                     0 = all hardware threads (the default)\n"
        "  --drain-sec F      shutdown drain budget for in-flight jobs,\n"
        "                     0-86400 s (default 10)\n"
        "  --metrics          enable the metrics registry/endpoint\n"
        "  --metrics-port N   serve GET /metrics (Prometheus text) and\n"
        "                     GET /healthz over HTTP on this port; 0\n"
        "                     picks a free one. Implies --metrics\n"
        "  --allow-remote-shutdown\n"
        "                     honour {\"op\":\"shutdown\"} requests\n");
}

bool
parse(int argc, char **argv, DaemonOptions &options)
{
    options.core.data_dir = "elivagar-jobs";
    options.tcp.port = 7421;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                elv::fatal("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--host")
            options.tcp.host = value();
        else if (arg == "--port")
            options.tcp.port = elv::flag_number<std::uint16_t>(arg, value());
        else if (arg == "--data-dir")
            options.core.data_dir = value();
        else if (arg == "--capacity")
            options.core.queue_capacity =
                elv::flag_number<std::size_t>(arg, value(), 1);
        else if (arg == "--workers")
            options.core.workers = elv::flag_number(arg, value(), 1, 1024);
        else if (arg == "--threads")
            options.core.thread_budget =
                elv::flag_number(arg, value(), 0, 1024);
        else if (arg == "--drain-sec")
            options.drain_sec = elv::flag_number(arg, value(), 0.0, 86400.0);
        else if (arg == "--metrics")
            options.core.metrics = true;
        else if (arg == "--metrics-port") {
            options.metrics_port = elv::flag_number(arg, value(), 0, 65535);
            options.core.metrics = true;
        }
        else if (arg == "--allow-remote-shutdown")
            options.tcp.allow_shutdown = true;
        else if (arg == "--help" || arg == "-h") {
            print_usage();
            return false;
        } else {
            elv::fatal("unknown option: " + arg);
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonOptions options;
    try {
        if (!parse(argc, argv, options))
            return 0;

        elv::srv::Server server(options.core);
        elv::srv::TcpServer tcp(server, options.tcp);
        std::unique_ptr<elv::srv::MetricsHttpServer> http;
        if (options.metrics_port >= 0) {
            elv::srv::HttpConfig hc;
            hc.host = options.tcp.host;
            hc.port = static_cast<std::uint16_t>(options.metrics_port);
            http = std::make_unique<elv::srv::MetricsHttpServer>(server,
                                                                 hc);
        }
        std::printf("elivagar_server listening on %s:%u (data in %s)\n",
                    options.tcp.host.c_str(),
                    static_cast<unsigned>(tcp.port()),
                    options.core.data_dir.c_str());
        if (http)
            std::printf("elivagar_server metrics on http://%s:%u"
                        "/metrics\n",
                        options.tcp.host.c_str(),
                        static_cast<unsigned>(http->port()));
        std::fflush(stdout);

        std::signal(SIGTERM, on_signal);
        std::signal(SIGINT, on_signal);

        // The accept loop owns the main thread; a watcher converts the
        // async signal flag into a cooperative stop.
        std::atomic<bool> watcher_exit{false};
        std::thread watcher([&] {
            while (!watcher_exit.load()) {
                if (g_signal != 0) {
                    tcp.stop();
                    return;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
        });

        tcp.run();
        watcher_exit.store(true);
        watcher.join();

        double drain = options.drain_sec;
        if (tcp.shutdown_requested() && tcp.shutdown_drain_sec() > 0.0)
            drain = tcp.shutdown_drain_sec();
        std::printf("elivagar_server: draining (up to %.1f s)\n", drain);
        std::fflush(stdout);
        server.drain(drain);
        std::printf("elivagar_server: stopped\n");
        return 0;
    } catch (const elv::UsageError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        print_usage();
        return 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
