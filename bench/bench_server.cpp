/**
 * @file
 * Search-service characterization: what the daemon's admission control
 * and graceful-degradation ladder do to a burst of submissions, and
 * what per-job deadlines cost.
 *
 * Table 1 floods servers of increasing queue capacity with a fixed
 * burst and reports the accepted/rejected/shed split plus end-to-end
 * drain time — overload shows up as explicit rejections, never as
 * queue growth or hangs. Table 2 runs one fixed job under tightening
 * deadlines and reports the terminal state and observed wall time,
 * showing the cooperative-cancellation bound.
 */
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/table.hpp"
#include "server/server.hpp"

#include "harness.hpp"

namespace {

using namespace elv;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string
bench_dir(const std::string &name)
{
    const std::string path =
        std::filesystem::temp_directory_path().string() +
        "/elv_bench_server_" + name;
    std::filesystem::remove_all(path);
    return path;
}

core::RunSpec
burst_spec(std::uint64_t seed)
{
    core::RunSpec spec;
    spec.benchmark = "moons";
    spec.candidates = 6;
    spec.scale = 0.05;
    spec.seed = seed;
    return spec;
}

/** Wait until every known job is terminal (bounded). */
void
drain_all(srv::Server &server)
{
    const auto start = std::chrono::steady_clock::now();
    while (seconds_since(start) < 300.0) {
        bool pending = false;
        for (const auto &snap : server.jobs())
            pending |= !srv::job_state_terminal(snap.state);
        if (!pending)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    elv::bench::Reporter reporter("server", argc, argv);
    reporter.set_seed(7);

    const int burst = 24;

    Table admission("Burst of 24 submissions vs queue capacity "
                    "(1 worker, moons / 6 candidates)");
    admission.set_header({"capacity", "accepted", "rejected", "shed",
                          "completed", "drain (s)"});
    for (const std::size_t capacity : {2u, 4u, 8u, 16u}) {
        srv::ServerConfig config;
        config.data_dir =
            bench_dir("cap" + std::to_string(capacity));
        config.queue_capacity = capacity;
        config.workers = 1;
        config.thread_budget = reporter.threads();
        srv::Server server(config);

        const auto start = std::chrono::steady_clock::now();
        int accepted = 0, rejected = 0;
        for (int i = 0; i < burst; ++i) {
            core::RunSpec spec =
                burst_spec(static_cast<std::uint64_t>(100 + i));
            // A sprinkling of priorities exercises the shed path.
            spec.priority = i % 3;
            if (server.submit(spec).accepted)
                ++accepted;
            else
                ++rejected;
        }
        drain_all(server);
        const double drain_s = seconds_since(start);

        int shed = 0, completed = 0;
        for (const auto &snap : server.jobs()) {
            shed += snap.state == srv::JobState::Rejected;
            completed += snap.state == srv::JobState::Completed;
        }
        admission.add_row({std::to_string(capacity),
                           std::to_string(accepted),
                           std::to_string(rejected),
                           std::to_string(shed),
                           std::to_string(completed),
                           Table::fmt(drain_s, 2)});
        std::filesystem::remove_all(config.data_dir);
    }
    reporter.add(admission);

    Table deadlines("\nOne 64-candidate job under tightening "
                    "deadlines");
    deadlines.set_header(
        {"deadline (s)", "state", "observed wall (s)"});
    for (const double deadline : {0.0, 5.0, 0.25, 0.05}) {
        srv::ServerConfig config;
        config.data_dir = bench_dir("deadline");
        config.workers = 1;
        config.thread_budget = reporter.threads();
        srv::Server server(config);

        core::RunSpec spec = burst_spec(7);
        spec.candidates = 64;
        spec.scale = 0.1;
        spec.deadline_sec = deadline;
        const auto start = std::chrono::steady_clock::now();
        const auto outcome = server.submit(spec);
        drain_all(server);
        const double wall = seconds_since(start);
        const auto snap = server.status(outcome.id);
        deadlines.add_row(
            {deadline == 0.0 ? "none" : Table::fmt(deadline, 2),
             snap ? srv::job_state_name(snap->state) : "?",
             Table::fmt(wall, 2)});
        std::filesystem::remove_all(config.data_dir);
    }
    reporter.add(deadlines);

    std::printf(
        "\nShape check: smaller queues convert overload into explicit "
        "rejections (and\npriority sheds) while the drain time tracks "
        "the accepted count — memory and\nlatency stay bounded. "
        "Deadlines cut the observed wall time to roughly the\nbudget, "
        "with the job reported cancelled, not failed.\n");
    return 0;
}
