/**
 * @file
 * Worker transport for the distributed search. A WorkerChannel is one
 * line-oriented conversation with a worker: a write fd, a read fd and a
 * LineReader capped at wire.hpp's kMaxLineBytes. It is created one of
 * two ways, and the coordinator never cares which:
 *
 *  - spawn(): fork/exec of the elivagar_worker binary with the protocol
 *    on the child's stdin/stdout pipes (logs stay on the inherited
 *    stderr). close() is crash-hard: SIGKILL + reap, which is also what
 *    the coordinator does to a worker that stopped making progress
 *    before reissuing its shard.
 *  - connect(): a TCP connection to `elivagar_worker --serve` running
 *    on another machine; one socket carries both directions.
 *
 * Reads take a timeout everywhere: a worker that neither produces a
 * record nor fails within the progress deadline is indistinguishable
 * from a hung one, and the coordinator treats both the same way
 * (kill, reissue the remainder of the shard).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/line_io.hpp"

namespace elv::dist {

/** One line-oriented worker conversation (see file comment). */
class WorkerChannel
{
  public:
    /**
     * Spawn `binary` with `args` (argv[1..]); stdin/stdout become the
     * protocol pipes, stderr is inherited. Null + `error` only on
     * pipe/fork failure: a binary that cannot be executed fails after
     * the fork, so it surfaces as EOF on the first read.
     */
    static std::unique_ptr<WorkerChannel>
    spawn(const std::string &binary, const std::vector<std::string> &args,
          std::string &error);

    /** Connect to a worker serving `host`:`port`; null + `error` when
     * the connection fails. */
    static std::unique_ptr<WorkerChannel>
    connect(const std::string &host, std::uint16_t port,
            std::string &error);

    /** close()s — a still-running child is SIGKILLed and reaped. */
    ~WorkerChannel();

    WorkerChannel(const WorkerChannel &) = delete;
    WorkerChannel &operator=(const WorkerChannel &) = delete;

    /** Send one protocol line; false + `error` on a dead peer. */
    bool send_line(const std::string &line, std::string &error);

    /**
     * Read the next line. False on EOF, a dead peer, an over-long line,
     * or after `timeout_sec` without a complete line (`error` says
     * which); timeout <= 0 blocks indefinitely.
     */
    bool read_line(std::string &line, std::string &error,
                   double timeout_sec);

    /** Tear the conversation down (idempotent; hard for processes). */
    void close();

    /** Endpoint for diagnostics ("local worker pid 1234", host:port). */
    const std::string &describe() const { return where_; }

    /** Spawned child's pid; -1 for a socket peer or once closed. */
    int pid() const { return pid_; }

  private:
    WorkerChannel(int write_fd, int read_fd, int pid, std::string where);

    /** The child's stdin pipe, or the socket. */
    int write_fd_;
    /** The child's stdout pipe, or the same socket. */
    int read_fd_;
    int pid_;
    std::string where_;
    LineReader reader_;
};

/**
 * Parse "host:port" (or ":port" / "port" for loopback). False on a
 * malformed endpoint.
 */
bool parse_endpoint(const std::string &text, std::string &host,
                    std::uint16_t &port);

/**
 * The elivagar_worker binary to fork: $ELV_WORKER_BIN when set, else
 * a sibling of /proc/self/exe named "elivagar_worker" when that
 * exists, else bare "elivagar_worker" (resolved through PATH).
 */
std::string default_worker_binary();

} // namespace elv::dist
