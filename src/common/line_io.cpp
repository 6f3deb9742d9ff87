#include "common/line_io.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>

#include "common/logging.hpp"

namespace elv {

namespace {

std::string
errno_text()
{
    return std::strerror(errno);
}

/** Fill `addr` for an IPv4 literal `host`; false on anything else. */
bool
ipv4_address(const std::string &host, std::uint16_t port,
             sockaddr_in &addr)
{
    addr = sockaddr_in{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

void
set_nodelay(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::string
too_long(std::size_t max_line_bytes)
{
    return "line too long (over " + std::to_string(max_line_bytes) +
           " bytes)";
}

/** The fd this thread last found not to be a socket (see write_all). */
thread_local int t_pipe_fd = -1;

} // namespace

Listener::Listener(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    if (!ipv4_address(host, port, addr))
        elv::fatal("bad bind address: " + host);
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        elv::fatal("cannot create socket: " + errno_text());
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    socklen_t len = sizeof addr;
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0 ||
        ::listen(fd_, SOMAXCONN) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len) !=
            0) {
        const std::string why = errno_text();
        ::close(fd_);
        elv::fatal("cannot listen on " + host + ":" + std::to_string(port) +
                   ": " + why);
    }
    port_ = ntohs(addr.sin_port);
}

Listener::~Listener()
{
    ::close(fd_);
}

int
Listener::accept(int tick_ms)
{
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, tick_ms) <= 0 || !(pfd.revents & POLLIN))
        return -1;
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0)
        set_nodelay(fd);
    return fd;
}

int
connect_tcp(const std::string &host, std::uint16_t port,
            std::string &error)
{
    sockaddr_in addr{};
    if (!ipv4_address(host, port, addr)) {
        error = "bad address: " + host;
        return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        error = errno_text();
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        error = errno_text();
        ::close(fd);
        return -1;
    }
    set_nodelay(fd);
    return fd;
}

LineReader::LineReader(int fd, std::size_t max_line_bytes)
    : fd_(fd), max_line_bytes_(max_line_bytes)
{
}

bool
LineReader::read_line(std::string &line, std::string &error,
                      double timeout_sec)
{
    using Clock = std::chrono::steady_clock;
    const bool bounded = timeout_sec > 0.0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               bounded ? timeout_sec : 0.0));
    std::size_t scanned = 0;
    for (;;) {
        const std::size_t eol = buffer_.find('\n', scanned);
        if (eol != std::string::npos) {
            std::size_t end = eol;
            if (end > 0 && buffer_[end - 1] == '\r')
                --end;
            if (end > max_line_bytes_) {
                error = too_long(max_line_bytes_);
                return false;
            }
            line.assign(buffer_, 0, end);
            buffer_.erase(0, eol + 1);
            return true;
        }
        // +1: the '\r' of a "\r\n" may arrive ahead of its '\n'.
        if (buffer_.size() > max_line_bytes_ + 1) {
            error = too_long(max_line_bytes_);
            return false;
        }
        scanned = buffer_.size();
        if (bounded) {
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                                  deadline - Clock::now())
                                  .count();
            if (left <= 0) {
                error = "timed out waiting for a line";
                return false;
            }
            pollfd pfd{fd_, POLLIN, 0};
            const int ready = ::poll(
                &pfd, 1, left > INT_MAX ? INT_MAX : static_cast<int>(left));
            if (ready < 0 && errno != EINTR) {
                error = errno_text();
                return false;
            }
            if (ready <= 0)
                continue; // the deadline check above decides
        }
        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errno_text();
            return false;
        }
        if (n == 0) {
            error = "connection closed";
            return false;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
write_all(int fd, const std::string &data, std::string &error)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const char *at = data.data() + sent;
        const std::size_t left = data.size() - sent;
        const bool pipe = fd == t_pipe_fd;
        const ssize_t n = pipe ? ::write(fd, at, left)
                               : ::send(fd, at, left, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == ENOTSOCK && !pipe) {
                static const bool sigpipe_ignored = [] {
                    std::signal(SIGPIPE, SIG_IGN);
                    return true;
                }();
                (void)sigpipe_ignored;
                t_pipe_fd = fd;
                continue;
            }
            if (errno == EINTR)
                continue;
            error = errno_text();
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
write_line(int fd, const std::string &line, std::string &error)
{
    return write_all(fd, line + '\n', error);
}

} // namespace elv
