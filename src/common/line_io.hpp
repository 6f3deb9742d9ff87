/**
 * @file
 * Line I/O over file descriptors: the one place that decides how the
 * repo's line traffic is framed, capped, timed out and accepted. The
 * search server, its metrics port, the dist coordinator's worker
 * channels and elivagar_worker all speak through it.
 *
 *  - Listener: bind + listen (with the kernel's largest backlog), accept()
 *    on a poll tick so the caller re-checks its own stop flag at least
 *    once per tick.
 *  - connect_tcp: a client connection.
 *  - LineReader: '\n'-framed reads ("\r\n" tolerated) with a byte cap
 *    and a whole-line deadline; the same loop serves sockets and pipes.
 *  - write_all / write_line: one write-all loop for every fd kind.
 *
 * Every TCP socket Listener or connect_tcp returns has TCP_NODELAY set:
 * the protocols here are request/response lines, and Nagle would hold
 * a second back-to-back line until the peer's delayed ACK (~40 ms).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace elv {

/** A bound, listening TCP socket (IPv4). Closes it on destruction. */
class Listener
{
  public:
    /** Binds `host`:`port` (port 0 picks a free one) and listens with a
     * backlog of SOMAXCONN, so a burst of connects waits in the accept
     * queue instead of for a SYN retransmit; fatal() when the address
     * is bad or the bind fails. */
    Listener(const std::string &host, std::uint16_t port);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** The bound port (the chosen one when constructed with 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Wait up to `tick_ms` for a connection. Returns the accepted
     * socket, or -1 on an empty tick, a signal (EINTR) or an accept
     * error — the caller checks its stop flag and calls again.
     */
    int accept(int tick_ms);

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/** Connect to `host`:`port` (an IPv4 literal); the socket, or -1 with
 * `error` set. */
int connect_tcp(const std::string &host, std::uint16_t port,
                std::string &error);

/** Buffered '\n'-framed reader over one fd (socket or pipe). */
class LineReader
{
  public:
    /** Lines longer than `max_line_bytes` fail the read. Does not own
     * `fd`. */
    LineReader(int fd, std::size_t max_line_bytes);

    /**
     * Read the next line into `line`, terminator ("\n" or "\r\n")
     * stripped. `timeout_sec` bounds the whole line, not just its first
     * byte; <= 0 blocks. On failure `error` names the cause: "timed
     * out", "connection closed" (EOF, even mid-line: a partial line is
     * never returned), "line too long", or the errno text.
     */
    bool read_line(std::string &line, std::string &error,
                   double timeout_sec = 0.0);

  private:
    int fd_;
    std::size_t max_line_bytes_;
    std::string buffer_;
};

/**
 * Write all of `data` to `fd`; false with `error` set when the peer is
 * gone. Sockets are written with send(MSG_NOSIGNAL). send() rejects
 * anything else with ENOTSOCK; such an fd (a pipe) is then written with
 * write() and remembered per thread, so a pipe costs no extra syscall
 * after its first line. A pipe has no MSG_NOSIGNAL, so that first pipe
 * write also ignores SIGPIPE process-wide: a vanished reader surfaces
 * as EPIPE instead of killing the writer.
 */
bool write_all(int fd, const std::string &data, std::string &error);

/** write_all() of `line` plus its '\n' terminator. */
bool write_line(int fd, const std::string &line, std::string &error);

} // namespace elv
