#include "parallel/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/metrics.hpp"

namespace elv::par {

namespace {

/** Set while this thread runs pool bodies, the caller's included: a
 *  nested parallel_for then runs inline instead of waiting on itself. */
thread_local bool in_pool_body = false;

} // namespace

/**
 * One published parallel_for, held by shared_ptr so that a worker
 * waking after the loop has ended finds the counter past n in live
 * state; `body` is called only for a claimed index, which the caller
 * still waits for.
 */
struct ThreadPool::Loop
{
    Loop(const std::function<void(std::size_t)> &loop_body,
         std::size_t count)
        : body(&loop_body), n(count)
    {
    }

    const std::function<void(std::size_t)> *body;
    const std::size_t n;
    /** The next unclaimed index. */
    std::atomic<std::size_t> next{0};
    /** Set on the first failure; later claims skip their body. */
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;     // finished claims; guarded by mutex
    std::exception_ptr error; // first failure; guarded by mutex

    /** Claim and run indices until the counter passes n. */
    void
    run()
    {
        in_pool_body = true;
        std::size_t ran = 0, i = 0;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
            ++ran;
            if (failed.load(std::memory_order_relaxed))
                continue;
            try {
                (*body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
        in_pool_body = false;
        std::lock_guard<std::mutex> lock(mutex);
        done += ran;
        if (done == n)
            done_cv.notify_one();
    }
};

int
ThreadPool::hardware_threads()
{
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0)
        return std::max(1, CPU_COUNT(&cpus));
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads <= 0 ? hardware_threads() : num_threads)
{
    if (num_threads_ == 1)
        return; // inline serial pool: no workers
    try {
        for (int w = 0; w < num_threads_; ++w)
            workers_.emplace_back([this] { worker_loop(); });
    } catch (...) {
        stop_workers(); // join the workers that did start
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    stop_workers();
}

void
ThreadPool::stop_workers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::worker_loop()
{
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Loop> loop;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_cv_.wait(lock,
                          [&] { return stop_ || published_ != seen; });
            if (stop_)
                return;
            seen = published_;
            loop = loop_;
        }
        loop->run();
    }
}

void
ThreadPool::parallel_for(std::size_t n,
                         const std::function<void(std::size_t)> &body)
{
    if (workers_.empty() || in_pool_body || n <= 1) {
        // Serial reference path (and nested-call fallback): index
        // order, abort at the first exception like a plain loop.
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    ELV_METRIC_COUNT_N("pool.tasks", n);
    const auto loop = std::make_shared<Loop>(body, n);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        loop_ = loop;
        ++published_;
    }
    wake_cv_.notify_all();
    loop->run(); // the caller claims too: N workers + 1 runners

    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->done_cv.wait(lock, [&] { return loop->done == n; });
    if (loop->error)
        std::rethrow_exception(loop->error);
}

} // namespace elv::par
