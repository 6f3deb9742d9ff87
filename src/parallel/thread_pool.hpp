/**
 * @file
 * Fixed-size thread pool for the pipeline's flat index loops.
 *
 * `parallel_for` publishes one loop; the N sleeping workers and the
 * calling thread claim indices from one atomic counter until it passes
 * n, so a runner that finishes early simply claims more. The caller
 * returns once every claimed index has finished.
 *
 * Determinism contract: bodies run in an arbitrary order on arbitrary
 * threads, so callers must make every body order-independent (own RNG
 * stream, own executor state, writes confined to the index's own
 * result slot) and merge results in index order afterwards. A pool of
 * size 1 runs every body inline on the calling thread, in index order,
 * with no worker threads at all — this is the bit-identical serial
 * reference path that `elivagar_search(threads=1)` relies on.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace elv::par {

/** Fixed-size thread pool: one claim counter per parallel loop. */
class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 1 = inline serial execution
     *        (no threads spawned), <= 0 = hardware_threads()
     */
    explicit ThreadPool(int num_threads = 0);

    /** Joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (1 for the inline serial pool). */
    int size() const { return num_threads_; }

    /**
     * Run body(0..n-1) across the pool and wait for completion. The
     * first exception thrown by any body is rethrown here after every
     * running body has returned; indices claimed after it skip their
     * body. Not reentrant: a body that calls parallel_for again runs
     * the nested loop inline.
     */
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)> &body);

    /**
     * parallel_for that collects one result per index, in index order.
     * T must be default-constructible.
     */
    template <typename T, typename Fn>
    std::vector<T>
    parallel_map(std::size_t n, Fn &&fn)
    {
        std::vector<T> out(n);
        parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /** CPUs in the calling thread's affinity mask (>= 1 even when
     *  detection fails). */
    static int hardware_threads();

  private:
    struct Loop;

    void worker_loop();
    /** Wake the workers with stop set and join them. */
    void stop_workers();

    int num_threads_;
    std::mutex mutex_;
    std::condition_variable wake_cv_;
    /** The latest loop and its sequence number; guarded by mutex_. */
    std::shared_ptr<Loop> loop_;
    std::uint64_t published_ = 0;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace elv::par
