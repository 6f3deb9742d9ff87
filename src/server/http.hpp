/**
 * @file
 * Minimal HTTP/1.0 responder for the daemon's telemetry port.
 *
 * Serves exactly two read-only endpoints on a second port, separate
 * from the JSON-line control port so scrapes can never contend with
 * job traffic or trip admission control:
 *
 *   GET /metrics  -> Prometheus text exposition (obs/exposition.hpp),
 *                    including EWMA `_rate` gauges fed by the scrapes
 *                    themselves
 *   GET /healthz  -> the server's health JSON document
 *
 * The implementation is deliberately not a web server: one accept
 * loop thread (same 200 ms poll-tick pattern as `TcpServer::run`),
 * each connection handled inline: the request head is read line by
 * line under a 2 s whole-head deadline and an 8 KiB cap, the response
 * written, the connection closed. A scraper is a well-behaved machine
 * client; a slow or malicious peer costs at most one deadline, never a
 * thread or unbounded memory.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "common/line_io.hpp"
#include "obs/exposition.hpp"
#include "server/server.hpp"

namespace elv::srv {

struct HttpConfig
{
    std::string host = "127.0.0.1";
    /** 0 = ephemeral (query the bound port with port()). */
    std::uint16_t port = 0;
};

/** Owns its serving thread: constructing starts it, destroying joins. */
class MetricsHttpServer
{
  public:
    /** Binds and starts serving; fatal() when the port cannot bind. */
    MetricsHttpServer(Server &server, const HttpConfig &config);
    ~MetricsHttpServer();

    MetricsHttpServer(const MetricsHttpServer &) = delete;
    MetricsHttpServer &operator=(const MetricsHttpServer &) = delete;

    void stop();

    /** The bound port (resolves an ephemeral request). */
    std::uint16_t port() const { return listener_.port(); }

    /** Response document for a request target ("/metrics", ...). The
     * transport-free core, also what the tests drive directly. */
    std::string handle(const std::string &target, std::string &content_type);

  private:
    void serve_loop();
    void handle_connection(int fd);

    Server &server_;
    obs::Exposition exposition_;
    std::chrono::steady_clock::time_point epoch_;
    Listener listener_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace elv::srv
