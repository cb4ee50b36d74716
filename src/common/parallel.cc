#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace zerodev
{

namespace
{
std::atomic<unsigned> gJobsOverride{0};
thread_local bool tOnPoolWorker = false;
} // namespace

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
defaultJobs()
{
    const char *v = std::getenv("ZERODEV_JOBS");
    if (v && *v) {
        const unsigned long parsed = std::strtoul(v, nullptr, 10);
        if (parsed > 0)
            return static_cast<unsigned>(parsed);
    }
    return hardwareJobs();
}

void
setJobs(unsigned n)
{
    gJobsOverride.store(n, std::memory_order_relaxed);
}

unsigned
jobs()
{
    const unsigned n = gJobsOverride.load(std::memory_order_relaxed);
    return n > 0 ? n : defaultJobs();
}

ThreadPool::ThreadPool(unsigned workers)
    : workers_(tOnPoolWorker ? 1 : workers > 0 ? workers : jobs())
{
    if (workers_ <= 1)
        return; // inline mode: submit() runs jobs on the caller
    threads_.reserve(workers_);
    for (unsigned i = 0; i < workers_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::noteFailure(std::size_t index, std::exception_ptr e)
{
    // Keep only the failure of the lowest submission index so wait()
    // rethrows deterministically no matter how workers interleaved.
    if (!firstError_ || index < firstErrorIndex_) {
        firstError_ = std::move(e);
        firstErrorIndex_ = index;
    }
}

std::size_t
ThreadPool::submit(std::function<void()> job)
{
    if (threads_.empty()) {
        // Serial fallback: run inline, same error contract as the pool.
        const std::size_t index = submitted_++;
        try {
            job();
        } catch (...) {
            noteFailure(index, std::current_exception());
        }
        return index;
    }
    std::size_t index;
    {
        std::unique_lock<std::mutex> lock(mu_);
        index = submitted_++;
        queue_.push_back({index, std::move(job)});
    }
    workCv_.notify_one();
    return index;
}

void
ThreadPool::runJob(const Job &job)
{
    try {
        job.fn();
    } catch (...) {
        std::unique_lock<std::mutex> lock(mu_);
        noteFailure(job.index, std::current_exception());
    }
}

void
ThreadPool::workerLoop()
{
    tOnPoolWorker = true;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        workCv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }
        Job job = std::move(queue_.front());
        queue_.pop_front();
        ++inFlight_;
        lock.unlock();
        runJob(job);
        lock.lock();
        --inFlight_;
        if (queue_.empty() && inFlight_ == 0)
            idleCv_.notify_all();
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && inFlight_ == 0; });
    if (firstError_) {
        std::exception_ptr e = std::move(firstError_);
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
            unsigned jobs_override)
{
    if (n == 0)
        return;
    const unsigned k = jobs_override > 0 ? jobs_override : jobs();
    if (k <= 1 || n == 1 || tOnPoolWorker) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(k, n)));
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&body, i] { body(i); });
    pool.wait();
}

} // namespace zerodev
