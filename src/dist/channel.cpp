#include "dist/channel.hpp"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/wire.hpp"

namespace elv::dist {

std::unique_ptr<WorkerChannel>
WorkerChannel::spawn(const std::string &binary,
                     const std::vector<std::string> &args,
                     std::string &error)
{
    // argv is built before the fork: between fork and exec the child of
    // a multithreaded process may make only async-signal-safe calls,
    // and an allocation there can block forever on an allocator lock
    // another thread held at the moment of the fork.
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(binary.c_str()));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    // O_CLOEXEC, atomically: a worker forked later must not inherit
    // this worker's pipe ends — a leaked write end would keep the
    // coordinator from ever seeing EOF when this worker dies, turning
    // every crash into a full record-timeout stall. The child's dup2
    // onto stdin/stdout clears the flag on the two fds it keeps.
    int to_child[2], from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0) {
        error = std::strerror(errno);
        return nullptr;
    }
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
        error = std::strerror(errno);
        ::close(to_child[0]);
        ::close(to_child[1]);
        return nullptr;
    }
    const pid_t child = ::fork();
    if (child < 0) {
        error = std::strerror(errno);
        ::close(to_child[0]);
        ::close(to_child[1]);
        ::close(from_child[0]);
        ::close(from_child[1]);
        return nullptr;
    }
    if (child == 0) {
        // Child: protocol on stdin/stdout, logs on inherited stderr.
        // Only async-signal-safe calls between fork and exec.
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        ::close(to_child[0]);
        ::close(to_child[1]);
        ::close(from_child[0]);
        ::close(from_child[1]);
        ::execvp(argv[0], argv.data());
        // Exec failed: the parent sees EOF on the first read and
        // reports the spawn failure there.
        ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    return std::unique_ptr<WorkerChannel>(
        new WorkerChannel(to_child[1], from_child[0], child,
                          "local worker pid " + std::to_string(child)));
}

std::unique_ptr<WorkerChannel>
WorkerChannel::connect(const std::string &host, std::uint16_t port,
                       std::string &error)
{
    const std::string where = host + ":" + std::to_string(port);
    const int fd = connect_tcp(host, port, error);
    if (fd < 0) {
        error = "cannot connect to " + where + ": " + error;
        return nullptr;
    }
    return std::unique_ptr<WorkerChannel>(
        new WorkerChannel(fd, fd, -1, where));
}

WorkerChannel::WorkerChannel(int write_fd, int read_fd, int pid,
                             std::string where)
    : write_fd_(write_fd), read_fd_(read_fd), pid_(pid),
      where_(std::move(where)), reader_(read_fd, kMaxLineBytes)
{
}

WorkerChannel::~WorkerChannel() { close(); }

bool
WorkerChannel::send_line(const std::string &line, std::string &error)
{
    if (write_fd_ < 0) {
        error = "channel to " + where_ + " is closed";
        return false;
    }
    return write_line(write_fd_, line, error);
}

bool
WorkerChannel::read_line(std::string &line, std::string &error,
                         double timeout_sec)
{
    if (read_fd_ < 0) {
        error = "channel to " + where_ + " is closed";
        return false;
    }
    return reader_.read_line(line, error, timeout_sec);
}

void
WorkerChannel::close()
{
    if (read_fd_ >= 0 && read_fd_ != write_fd_)
        ::close(read_fd_);
    if (write_fd_ >= 0)
        ::close(write_fd_);
    read_fd_ = write_fd_ = -1;
    if (pid_ > 0) {
        // Crash-hard teardown: the worker holds no state worth a
        // graceful drain (journals live on the coordinator side), and
        // a hung worker would stall the whole run otherwise.
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }
}

bool
parse_endpoint(const std::string &text, std::string &host,
               std::uint16_t &port)
{
    std::string port_text = text;
    host = "127.0.0.1";
    const std::size_t colon = text.rfind(':');
    if (colon != std::string::npos) {
        if (colon > 0)
            host = text.substr(0, colon);
        port_text = text.substr(colon + 1);
    }
    if (port_text.empty())
        return false;
    char *end = nullptr;
    const unsigned long value = std::strtoul(port_text.c_str(), &end, 10);
    if (end != port_text.c_str() + port_text.size() || value == 0 ||
        value > 65535)
        return false;
    port = static_cast<std::uint16_t>(value);
    return true;
}

std::string
default_worker_binary()
{
    if (const char *env = std::getenv("ELV_WORKER_BIN"))
        if (*env != '\0')
            return env;
    std::error_code ec;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec) {
        const std::filesystem::path sibling =
            self.parent_path() / "elivagar_worker";
        if (std::filesystem::exists(sibling, ec) && !ec)
            return sibling.string();
    }
    return "elivagar_worker";
}

} // namespace elv::dist
