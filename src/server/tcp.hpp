/**
 * @file
 * TCP transport for the search service: line-delimited JSON over a
 * loopback (by default) socket. One thread per connection, with a hard
 * connection cap and a per-line byte cap so a hostile or broken client
 * can neither exhaust threads nor buffer unbounded input; over-cap
 * connections get an explicit JSON error line, never a silent hang.
 *
 * The transport owns no job state — it parses lines and calls the
 * Server core (see protocol.hpp). "watch" requests hold their
 * connection and stream one status line per observable change until
 * the watched job reaches a terminal state.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "common/line_io.hpp"
#include "server/server.hpp"

namespace elv::srv {

/** Transport knobs. */
struct TcpConfig
{
    /** Bind address; keep the default unless you mean to be reachable. */
    std::string host = "127.0.0.1";
    /** Bind port; 0 picks a free port (see TcpServer::port()). */
    std::uint16_t port = 0;
    /** Honour {"op":"shutdown"} requests from clients. */
    bool allow_shutdown = false;
};

/** Accept loop + per-connection threads in front of a Server core. */
class TcpServer
{
  public:
    /** Binds and listens immediately; fatal() when the bind fails. */
    TcpServer(Server &server, const TcpConfig &config);

    /** Stops the loop and joins every connection thread. */
    ~TcpServer();

    TcpServer(const TcpServer &) = delete;
    TcpServer &operator=(const TcpServer &) = delete;

    /** The bound port (the chosen one when config.port was 0). */
    std::uint16_t port() const { return listener_.port(); }

    /**
     * Accept loop. Returns when stop() is called or a permitted
     * shutdown request arrives; in-flight connections are then closed
     * and joined. Callers typically run this on the main thread and
     * call stop() from a signal-watching thread.
     */
    void run();

    /**
     * Ask run() to return; safe from any thread and from more than
     * one caller. Also half-closes every live connection socket so
     * threads blocked in a read wake up and exit — without this an
     * idle client would pin the destructor's join forever.
     */
    void stop();

    /** A client requested shutdown (valid after run() returns). */
    bool shutdown_requested() const
    {
        return shutdown_requested_.load();
    }
    /** Drain budget from the shutdown request. */
    double shutdown_drain_sec() const
    {
        return shutdown_drain_sec_.load();
    }

  private:
    struct Connection
    {
        std::thread thread;
        /** The socket; -1 once the owning thread has closed it.
         * Guarded by conns_mutex_ so stop() never shuts down a
         * recycled descriptor. */
        int fd = -1;
        std::atomic<bool> done{false};
    };

    void handle_connection(int fd);
    void watch_job(int fd, const std::string &id);
    /** Join finished connection threads (called from the accept loop). */
    void reap_locked();

    Server &server_;
    TcpConfig config_;
    Listener listener_;

    std::mutex conns_mutex_;
    std::list<Connection> conns_;
    std::atomic<std::size_t> active_{0};

    std::atomic<bool> stop_{false};
    std::atomic<bool> shutdown_requested_{false};
    // Atomic: written by a connection thread, read by the thread that
    // ran run() — which may have left run() via a concurrent stop()
    // rather than by observing this connection's stop_ store.
    std::atomic<double> shutdown_drain_sec_{0.0};
};

/** @name Blocking client helpers (CLI client mode, tests) @{ */

/** One TCP connection speaking the line protocol. */
class Client
{
  public:
    /** Connects; sets `error` and leaves the client closed on failure. */
    Client(const std::string &host, std::uint16_t port,
           std::string &error);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool connected() const { return fd_ >= 0; }

    /** Send one request line, wait for the one response line. */
    bool request(const std::string &line, std::string &response,
                 std::string &error);

    /** Send one line (request() for streaming ops like watch). */
    bool send_line(const std::string &line, std::string &error);

    /**
     * Read the next line; false at EOF or error. `timeout_sec` <= 0
     * blocks indefinitely.
     */
    bool read_line(std::string &line, std::string &error,
                   double timeout_sec = 0.0);

  private:
    int fd_ = -1;
    LineReader reader_;
};

/** @} */

} // namespace elv::srv
