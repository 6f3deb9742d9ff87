#include "obs/profiler.hpp"

#include <atomic>
#include <map>
#include <vector>

#include "common/file_write.hpp"
#include "common/logging.hpp"

#if defined(__linux__) && defined(__GLIBC__)
#define ELV_PROFILER_SUPPORTED 1
#else
#define ELV_PROFILER_SUPPORTED 0
#endif

#if ELV_PROFILER_SUPPORTED
#include <cstring>
#include <cxxabi.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#endif

namespace elv::obs {

#if ELV_PROFILER_SUPPORTED

namespace {

constexpr std::size_t kMaxDepth = 48;
constexpr std::size_t kRingSlots = 1 << 16; // ~24 MiB of frame slots

struct Slot
{
    void *frames[kMaxDepth];
    /** Frame count, stored with release order *after* the frames — the
     * publication point a racing reader synchronizes on. 0 = not yet
     * published. */
    std::atomic<int> depth{0};
};

// All profiler state is static and preallocated at start(): the signal
// handler may fire on any thread at any instant, so it can only touch
// memory that is already mapped and needs no locks.
Slot *g_ring = nullptr;
std::atomic<std::uint32_t> g_next_slot{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<bool> g_armed{false};
std::atomic<bool> g_running{false};
struct sigaction g_previous_action;

extern "C" void
profiler_signal_handler(int)
{
    // Async-signal context: atomics + backtrace() into a claimed slot,
    // nothing else. backtrace was primed in start(), so it no longer
    // allocates here.
    if (!g_armed.load(std::memory_order_acquire))
        return;
    const std::uint32_t index =
        g_next_slot.fetch_add(1, std::memory_order_relaxed);
    if (index >= kRingSlots) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Slot &slot = g_ring[index];
    const int depth =
        backtrace(slot.frames, static_cast<int>(kMaxDepth));
    slot.depth.store(depth, std::memory_order_release);
}

/** "module(mangled+0x1a) [0x7f...]" → demangled function name. */
std::string
symbol_name(const std::string &raw)
{
    const std::size_t open = raw.find('(');
    const std::size_t plus = raw.find('+', open == std::string::npos
                                               ? 0
                                               : open);
    std::string mangled;
    if (open != std::string::npos && plus != std::string::npos &&
        plus > open + 1)
        mangled = raw.substr(open + 1, plus - open - 1);
    if (mangled.empty()) {
        // No in-binary symbol (static function, or built without
        // -rdynamic): fall back to the module basename so the frame
        // still aggregates meaningfully.
        const std::size_t end = open == std::string::npos
                                    ? raw.find(' ')
                                    : open;
        std::string module = raw.substr(0, end);
        const std::size_t slash = module.rfind('/');
        if (slash != std::string::npos)
            module = module.substr(slash + 1);
        return module.empty() ? std::string("[unknown]")
                              : "[" + module + "]";
    }
    int status = 0;
    char *demangled = abi::__cxa_demangle(mangled.c_str(), nullptr,
                                          nullptr, &status);
    if (status == 0 && demangled) {
        std::string out(demangled);
        free(demangled); // NOLINT: __cxa_demangle mallocs
        // Folded format separators would split the frame.
        for (char &c : out)
            if (c == ';' || c == '\n')
                c = ':';
        return out;
    }
    free(demangled); // NOLINT
    return mangled;
}

} // namespace

Profiler &
Profiler::global()
{
    static Profiler instance;
    return instance;
}

bool
Profiler::start(int hz)
{
    if (hz <= 0 || hz > 1000) {
        elv::warn("profiler rate must lie in [1, 1000] Hz");
        return false;
    }
    if (g_running.load(std::memory_order_relaxed)) {
        elv::warn("profiler already running");
        return false;
    }
    if (!g_ring)
        g_ring = new Slot[kRingSlots];
    g_next_slot.store(0, std::memory_order_relaxed);
    g_dropped.store(0, std::memory_order_relaxed);
    for (std::size_t s = 0; s < kRingSlots; ++s)
        g_ring[s].depth.store(0, std::memory_order_relaxed);

    // Prime backtrace(): its first call may dlopen libgcc_s, which
    // must not happen inside the signal handler.
    void *prime[4];
    backtrace(prime, 4);

    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = profiler_signal_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    if (sigaction(SIGPROF, &action, &g_previous_action) != 0) {
        elv::warn("profiler: sigaction(SIGPROF) failed");
        return false;
    }
    g_armed.store(true, std::memory_order_release);

    itimerval timer;
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec = 1000000 / hz;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
        g_armed.store(false, std::memory_order_release);
        sigaction(SIGPROF, &g_previous_action, nullptr);
        elv::warn("profiler: setitimer(ITIMER_PROF) failed");
        return false;
    }
    g_running.store(true, std::memory_order_relaxed);
    return true;
}

void
Profiler::stop()
{
    if (!g_running.exchange(false, std::memory_order_relaxed))
        return;
    itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
    g_armed.store(false, std::memory_order_release);
    sigaction(SIGPROF, &g_previous_action, nullptr);
}

bool
Profiler::running() const
{
    return g_running.load(std::memory_order_relaxed);
}

Profiler::Stats
Profiler::stats() const
{
    Stats out;
    const std::uint32_t claimed =
        g_next_slot.load(std::memory_order_relaxed);
    out.samples = std::min<std::uint64_t>(claimed, kRingSlots);
    out.dropped = g_dropped.load(std::memory_order_relaxed);
    return out;
}

bool
Profiler::write_collapsed(const std::string &path)
{
    stop();
    if (!g_ring) {
        elv::warn("profiler: no samples collected");
        return false;
    }
    const std::size_t used = std::min<std::size_t>(
        g_next_slot.load(std::memory_order_relaxed), kRingSlots);

    // Symbolize each unique address once; backtrace_symbols mallocs
    // per call, so batch per-slot but cache by address.
    std::map<void *, std::string> names;
    std::map<std::string, std::uint64_t> folded;
    std::uint64_t kept = 0;
    for (std::size_t s = 0; s < used; ++s) {
        const int depth = g_ring[s].depth.load(std::memory_order_acquire);
        if (depth <= 0)
            continue; // unpublished slot from a racing late tick
        // frames[0] is the handler, frames[1] the kernel signal
        // trampoline — drop both so stacks root at the profiled code.
        const int skip = std::min(2, depth - 1);
        std::string line;
        for (int f = depth - 1; f >= skip; --f) {
            void *addr = g_ring[s].frames[f];
            auto it = names.find(addr);
            if (it == names.end()) {
                char **symbols = backtrace_symbols(&addr, 1);
                std::string name =
                    symbols ? symbol_name(symbols[0])
                            : std::string("[unknown]");
                free(symbols); // NOLINT: backtrace_symbols mallocs
                it = names.emplace(addr, std::move(name)).first;
            }
            if (!line.empty())
                line += ';';
            line += it->second;
        }
        if (line.empty())
            continue;
        ++folded[line];
        ++kept;
    }
    if (kept == 0) {
        elv::warn("profiler: no samples collected");
        return false;
    }
    std::string text;
    for (const auto &[stack, count] : folded)
        text += stack + " " + std::to_string(count) + "\n";
    if (!elv::write_file(path, text)) {
        elv::warn("cannot write profile file " + path);
        return false;
    }
    const std::uint64_t dropped =
        g_dropped.load(std::memory_order_relaxed);
    elv::inform("profiler: wrote " + std::to_string(kept) +
                " samples (" + std::to_string(folded.size()) +
                " unique stacks" +
                (dropped ? ", " + std::to_string(dropped) + " dropped"
                         : std::string()) +
                ") to " + path);
    return true;
}

#else // !ELV_PROFILER_SUPPORTED

Profiler &
Profiler::global()
{
    static Profiler instance;
    return instance;
}

bool
Profiler::start(int)
{
    elv::warn("profiler unavailable in this build");
    return false;
}

void
Profiler::stop()
{
}

bool
Profiler::running() const
{
    return false;
}

Profiler::Stats
Profiler::stats() const
{
    return {};
}

bool
Profiler::write_collapsed(const std::string &)
{
    return false;
}

#endif // ELV_PROFILER_SUPPORTED

} // namespace elv::obs
