#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace sdfm {

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    task_ready_.notify_one();
}

void
ThreadPool::wait_idle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            task_ready_.wait(lock,
                             [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

void
parallel_for(ThreadPool &pool, std::size_t count,
             const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    // Chunk the index space so tiny bodies do not drown in queue
    // overhead; one chunk per worker per ~4 rounds.
    std::size_t chunks = pool.num_threads() * 4;
    if (chunks > count)
        chunks = count;
    std::size_t chunk_size = (count + chunks - 1) / chunks;
    std::atomic<std::size_t> next{0};
    // A throwing body must not escape into the worker (that would
    // terminate the process): every index still runs, and the
    // exception of the lowest index that threw is rethrown here.
    std::mutex failure_mutex;
    std::size_t failed_index = count;
    std::exception_ptr failure;
    auto run = [&](std::size_t i) {
        try {
            body(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (i < failed_index) {
                failed_index = i;
                failure = std::current_exception();
            }
        }
    };
    for (std::size_t c = 0; c < chunks; ++c) {
        pool.submit([&next, count, chunk_size, &run] {
            for (;;) {
                std::size_t start = next.fetch_add(chunk_size);
                if (start >= count)
                    return;
                std::size_t end = std::min(count, start + chunk_size);
                for (std::size_t i = start; i < end; ++i)
                    run(i);
            }
        });
    }
    pool.wait_idle();
    if (failure)
        std::rethrow_exception(failure);
}

}  // namespace sdfm
