#include "server/tcp.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "server/protocol.hpp"

namespace elv::srv {

namespace {

/** Concurrent connections; the excess is rejected explicitly. */
constexpr std::size_t kMaxConnections = 64;
/** Request line cap; a longer line ends its connection. */
constexpr std::size_t kMaxRequestBytes = 64 * 1024;
/** Response line cap on the client side. */
constexpr std::size_t kMaxResponseBytes = 1024 * 1024;
/** Accept poll tick: how fast stop() is honoured on an idle port. */
constexpr int kAcceptTickMs = 200;

std::string
transport_error_line(const std::string &what)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("ok", false);
    json.kv("error", what);
    json.end_object();
    return json.str();
}

} // namespace

TcpServer::TcpServer(Server &server, const TcpConfig &config)
    : server_(server), config_(config),
      listener_(config.host, config.port)
{
}

TcpServer::~TcpServer()
{
    stop();
    // Join without holding conns_mutex_: a live connection thread
    // takes it to invalidate its fd on the way out, so joining under
    // the lock would deadlock. Swapping the list keeps the nodes (and
    // the `conn` references the threads hold) alive.
    std::list<Connection> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conns.swap(conns_);
    }
    for (Connection &conn : conns)
        if (conn.thread.joinable())
            conn.thread.join();
}

void
TcpServer::stop()
{
    stop_.store(true);
    // Half-close every live connection so threads blocked in a read
    // see EOF and exit; otherwise an idle client would block the
    // destructor's join indefinitely.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (Connection &conn : conns_)
        if (conn.fd >= 0)
            ::shutdown(conn.fd, SHUT_RDWR);
}

void
TcpServer::reap_locked()
{
    for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->done.load()) {
            if (it->thread.joinable())
                it->thread.join();
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
TcpServer::run()
{
    while (!stop_.load()) {
        const int fd = listener_.accept(kAcceptTickMs);
        if (fd < 0)
            continue;
        if (active_.load() >= kMaxConnections) {
            // Explicit rejection, mirroring job admission control.
            std::string ignored;
            write_line(fd, transport_error_line("too many connections"),
                       ignored);
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lock(conns_mutex_);
        reap_locked();
        conns_.emplace_back();
        Connection &conn = conns_.back();
        conn.fd = fd;
        ++active_;
        conn.thread = std::thread([this, fd, &conn] {
            handle_connection(fd);
            {
                // Invalidate before close so a concurrent stop()
                // cannot shutdown() a recycled descriptor.
                std::lock_guard<std::mutex> inner(conns_mutex_);
                conn.fd = -1;
            }
            ::close(fd);
            --active_;
            conn.done.store(true);
        });
    }
}

void
TcpServer::handle_connection(int fd)
{
    LineReader reader(fd, kMaxRequestBytes);
    std::string line, error;
    while (!stop_.load() && reader.read_line(line, error)) {
        if (line.empty())
            continue;
        const RequestOutcome outcome =
            handle_request(server_, line, config_.allow_shutdown);
        if (!write_line(fd, outcome.response, error))
            return;
        if (outcome.action == RequestAction::Watch) {
            watch_job(fd, outcome.watch_id);
        } else if (outcome.action == RequestAction::Shutdown) {
            shutdown_drain_sec_.store(outcome.drain_sec);
            shutdown_requested_.store(true);
            stop_.store(true);
            return;
        }
    }
}

void
TcpServer::watch_job(int fd, const std::string &id)
{
    std::uint64_t epoch = server_.change_epoch();
    std::string error;
    while (!stop_.load()) {
        const auto snap = server_.status(id);
        if (!snap)
            return;
        if (!write_line(fd, status_json(*snap), error))
            return;
        if (job_state_terminal(snap->state))
            return;
        // Wake on any state change; the timeout keeps the stop flag
        // honoured even on an idle server.
        epoch = server_.wait_for_change(epoch, 0.5);
    }
}

Client::Client(const std::string &host, std::uint16_t port,
               std::string &error)
    : fd_(connect_tcp(host, port, error)),
      reader_(fd_, kMaxResponseBytes)
{
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Client::send_line(const std::string &line, std::string &error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    return write_line(fd_, line, error);
}

bool
Client::read_line(std::string &line, std::string &error,
                  double timeout_sec)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    return reader_.read_line(line, error, timeout_sec);
}

bool
Client::request(const std::string &line, std::string &response,
                std::string &error)
{
    return send_line(line, error) && read_line(response, error);
}

} // namespace elv::srv
