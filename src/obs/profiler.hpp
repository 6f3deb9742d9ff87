/**
 * @file
 * SIGPROF-based sampling profiler emitting collapsed-stack output.
 *
 * `start(hz)` arms `ITIMER_PROF`, which ticks on CPU time consumed by
 * the whole process and delivers SIGPROF to some running thread — so
 * samples land where the cycles go, pool workers included, with zero
 * per-sample cooperation from the profiled code. The handler captures
 * a raw backtrace into a preallocated lock-free ring and returns;
 * everything that allocates (symbolization, demangling, aggregation)
 * happens at `write_collapsed()` time on the caller's thread.
 *
 * Output is the "folded" format flamegraph.pl and speedscope consume:
 * one line per unique stack, root first, semicolon-separated, followed
 * by the sample count:
 *
 *     main;elivagar_search;run_cnr;apply_fused_2q 412
 *
 * Safety rules (see DESIGN.md §13):
 *  - the handler touches only the preallocated ring and atomics —
 *    no malloc, no locks, no stdio;
 *  - `backtrace()` is primed once in `start()` (its first call may
 *    dlopen libgcc, which is not async-signal-safe);
 *  - slots are claimed with a fetch_add and published with a release
 *    store of the frame count, so a reader racing a late tick skips
 *    incomplete slots instead of reading torn frames;
 *  - when the ring fills, further samples are counted as dropped, not
 *    blocked on.
 *
 * Compiled to no-op stubs on platforms without <execinfo.h>; `start()`
 * then returns false with a warning.
 */
#pragma once

#include <cstdint>
#include <string>

namespace elv::obs {

class Profiler
{
  public:
    static Profiler &global();

    struct Stats
    {
        std::uint64_t samples = 0;
        std::uint64_t dropped = 0;
    };

    /**
     * Install the SIGPROF handler and arm ITIMER_PROF at `hz` samples
     * per second of process CPU time. Returns false (with a warning)
     * when profiling is unsupported or already running.
     */
    bool start(int hz = 97);

    /** Disarm the timer and restore the previous SIGPROF disposition. */
    void stop();

    bool running() const;

    Stats stats() const;

    /**
     * stop() if running, symbolize the sampled stacks and append the
     * collapsed-stack lines to `path`. Returns false when nothing was
     * sampled or the file cannot be written.
     */
    bool write_collapsed(const std::string &path);
};

} // namespace elv::obs
