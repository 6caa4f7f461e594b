/**
 * @file
 * Fixed-size worker pool used by the fast far-memory model to replay
 * per-job traces in parallel (the paper uses a MapReduce-style
 * pipeline; parallel-over-jobs is the property that matters).
 */

#ifndef SDFM_UTIL_THREAD_POOL_H
#define SDFM_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sdfm {

/** A fixed pool of worker threads consuming a FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 means
     *        std::thread::hardware_concurrency() (min 1).
     */
    explicit ThreadPool(std::size_t num_threads = 0);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and all workers are idle. */
    void wait_idle();

    std::size_t num_threads() const { return workers_.size(); }

  private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t active_ = 0;
    bool stopping_ = false;
};

/**
 * Run body(i) for i in [0, count) across the pool and wait for
 * completion. The body must be safe to invoke concurrently for
 * distinct indices. When bodies throw, the remaining indices still
 * run, and the exception of the lowest index that threw is rethrown
 * on the calling thread; the pool stays usable.
 */
void parallel_for(ThreadPool &pool, std::size_t count,
                  const std::function<void(std::size_t)> &body);

}  // namespace sdfm

#endif  // SDFM_UTIL_THREAD_POOL_H
