/**
 * @file
 * Evaluation worker of the distributed sharded search (see
 * src/dist). One process serves one coordinator conversation: it
 * receives a run spec, proves config identity with a fingerprint
 * handshake, then evaluates the CNR/RepCap stage requests it is sent
 * and streams (index, scores) records back. All protocol I/O is
 * line-delimited JSON; logs go to stderr so the protocol stream stays
 * clean.
 *
 * Modes:
 *   elivagar_worker                    serve stdin/stdout — the
 *                                      fork/exec transport used by
 *                                      `elivagar_cli search --workers N`
 *   elivagar_worker --serve [--host A] [--port N]
 *                                      accept TCP coordinators (one at
 *                                      a time) — the `--attach
 *                                      host:port` transport. Prints
 *                                      {"ev":"listening","port":N}
 *                                      once bound; port 0 picks a free
 *                                      one. SIGTERM/SIGINT stop it
 *                                      between conversations.
 */
#include <csignal>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "common/flag_number.hpp"
#include "common/line_io.hpp"
#include "common/logging.hpp"
#include "dist/worker.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void
on_signal(int signum)
{
    g_signal = signum;
}

void
print_usage()
{
    std::printf(
        "usage: elivagar_worker [options]\n"
        "  (no options)   serve one coordinator on stdin/stdout\n"
        "  --serve        accept TCP coordinators instead\n"
        "  --host A       bind address for --serve (default "
        "127.0.0.1)\n"
        "  --port N       bind port for --serve; 0 picks a free one "
        "(default 0)\n");
}

/** --serve: bind, announce the port, accept coordinators in turn. */
int
serve_tcp(const std::string &host, std::uint16_t port)
{
    elv::Listener listener(host, port);
    std::printf("{\"ev\":\"listening\",\"port\":%u}\n",
                static_cast<unsigned>(listener.port()));
    std::fflush(stdout);
    while (g_signal == 0) {
        // The poll tick returns on a signal too, so an idle worker
        // sees SIGTERM within one tick.
        const int fd = listener.accept(200);
        if (fd < 0)
            continue;
        // One coordinator at a time: a worker is a single evaluation
        // engine, and queued coordinators would only time out slower.
        const int code = elv::dist::serve_worker(fd, fd);
        ::close(fd);
        if (code != 0)
            elv::warn("worker: conversation abandoned");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool serve = false;
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc)
                    elv::fatal("missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--serve")
                serve = true;
            else if (arg == "--host")
                host = value();
            else if (arg == "--port")
                port = elv::flag_number<std::uint16_t>(arg, value());
            else if (arg == "--help" || arg == "-h") {
                print_usage();
                return 0;
            } else {
                elv::fatal("unknown option: " + arg);
            }
        }
        // The coordinator closing its end mid-write must surface as a
        // failed write, not kill the worker with SIGPIPE.
        std::signal(SIGPIPE, SIG_IGN);
        std::signal(SIGTERM, on_signal);
        std::signal(SIGINT, on_signal);

        if (serve)
            return serve_tcp(host, port);
        return elv::dist::serve_worker(STDIN_FILENO, STDOUT_FILENO);
    } catch (const elv::UsageError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        print_usage();
        return 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
