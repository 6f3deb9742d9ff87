#include "server/http.hpp"

#include <unistd.h>

#include "obs/metrics.hpp"

namespace elv::srv {

namespace {

/** The whole request head (CRLFs included) must arrive within this
 * budget, and fit this cap. */
constexpr std::chrono::milliseconds kHeadDeadline{2000};
constexpr std::size_t kMaxHeadBytes = 8192;

std::string
http_response(const char *status, const std::string &content_type,
              const std::string &body)
{
    std::string out = "HTTP/1.0 ";
    out += status;
    out += "\r\nContent-Type: " + content_type;
    out += "\r\nContent-Length: " + std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

} // namespace

MetricsHttpServer::MetricsHttpServer(Server &server,
                                     const HttpConfig &config)
    : server_(server), epoch_(std::chrono::steady_clock::now()),
      listener_(config.host, config.port, 16)
{
    thread_ = std::thread([this] { serve_loop(); });
}

MetricsHttpServer::~MetricsHttpServer()
{
    stop();
    if (thread_.joinable())
        thread_.join();
}

void
MetricsHttpServer::stop()
{
    stop_.store(true);
}

std::string
MetricsHttpServer::handle(const std::string &target,
                          std::string &content_type)
{
    if (target == "/metrics" || target.rfind("/metrics?", 0) == 0) {
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        const double now_sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - epoch_)
                .count();
        return exposition_.render(obs::Registry::global(), now_sec);
    }
    if (target == "/healthz") {
        content_type = "application/json";
        return server_.health_json() + "\n";
    }
    content_type = "";
    return "";
}

void
MetricsHttpServer::serve_loop()
{
    while (!stop_.load()) {
        // Same short tick as TcpServer::run so stop() is honoured
        // promptly on an idle port.
        const int fd = listener_.accept(200);
        if (fd < 0)
            continue;
        handle_connection(fd);
        ::close(fd);
    }
}

void
MetricsHttpServer::handle_connection(int fd)
{
    // Read the request line and headers up to the blank line under one
    // deadline and byte cap — scrapers send a few hundred bytes
    // immediately, so anything slower or bigger forfeits its
    // connection rather than stalling the loop.
    LineReader reader(fd, kMaxHeadBytes);
    const auto deadline = std::chrono::steady_clock::now() + kHeadDeadline;
    std::string line, header, error;
    std::size_t head_bytes = 0;
    do {
        const double left = std::chrono::duration<double>(
                                deadline - std::chrono::steady_clock::now())
                                .count();
        if (left <= 0.0 || !reader.read_line(header, error, left))
            return;
        if (head_bytes == 0)
            line = header; // "GET <target> HTTP/1.x": all we parse
        head_bytes += header.size() + 2;
        if (head_bytes > kMaxHeadBytes)
            return;
    } while (!header.empty());

    std::string method, target;
    const std::size_t sp1 = line.find(' ');
    if (sp1 != std::string::npos) {
        method = line.substr(0, sp1);
        const std::size_t sp2 = line.find(' ', sp1 + 1);
        target = line.substr(sp1 + 1, sp2 == std::string::npos
                                          ? std::string::npos
                                          : sp2 - sp1 - 1);
    }
    if (method != "GET") {
        write_all(fd,
                  http_response("405 Method Not Allowed", "text/plain",
                                "only GET is supported\n"),
                  error);
        return;
    }
    std::string content_type;
    const std::string body = handle(target, content_type);
    if (content_type.empty()) {
        write_all(fd,
                  http_response("404 Not Found", "text/plain",
                                "unknown path (try /metrics or "
                                "/healthz)\n"),
                  error);
        return;
    }
    write_all(fd, http_response("200 OK", content_type, body), error);
}

} // namespace elv::srv
