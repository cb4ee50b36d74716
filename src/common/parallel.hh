/**
 * @file
 * Fixed-size worker pool for embarrassingly parallel sweep execution.
 *
 * Every (config, workload) simulation owns a private CmpSystem and Rng,
 * so sweeps parallelise without changing simulated results — as long as
 * results are collected by *submission index*, never completion order.
 * parallelMap() guarantees exactly that: out[i] is fn(i) regardless of
 * which worker ran it or when it finished, so a parallel sweep is
 * bit-identical to the serial loop it replaces.
 *
 * Job-count selection (highest priority first):
 *   1. an explicit @p jobs_override argument (e.g. a --jobs flag),
 *   2. setJobs() (process-wide override),
 *   3. the ZERODEV_JOBS environment variable,
 *   4. std::thread::hardware_concurrency().
 * A job count of 1 runs everything inline on the calling thread.
 *
 * Pools do not nest: a ThreadPool built on a pool-worker thread (for
 * example a Differ run inside a parallel fuzz wave) gets one worker and
 * runs its jobs inline, so an outer pool of J workers bounds the whole
 * process to J simulation threads.
 */

#ifndef ZERODEV_COMMON_PARALLEL_HH
#define ZERODEV_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace zerodev
{

/** max(1, hardware_concurrency). */
unsigned hardwareJobs();

/** ZERODEV_JOBS when set to a positive integer, else hardwareJobs(). */
unsigned defaultJobs();

/** Process-wide job-count override (a --jobs flag); 0 restores
 *  defaultJobs(). */
void setJobs(unsigned n);

/** Effective job count: setJobs() override, else defaultJobs(). */
unsigned jobs();

/**
 * A fixed-size pool of worker threads draining a FIFO job queue.
 *
 * Jobs are numbered by submission order. wait() blocks until every
 * submitted job completed; if any job threw, wait() rethrows the
 * exception of the *lowest-numbered* failing job (deterministic no
 * matter how execution interleaved) and leaves the pool reusable.
 * With a single worker the pool runs each job inline in submit(),
 * making jobs=1 an exact serial fallback with no thread involved. A
 * pool constructed on a worker thread of another pool always has a
 * single worker.
 */
class ThreadPool
{
  public:
    /** @param workers worker count; 0 selects jobs(). Forced to 1 when
     *  called on a pool-worker thread. */
    explicit ThreadPool(unsigned workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p job; returns its submission index. */
    std::size_t submit(std::function<void()> job);

    /** Block until all submitted jobs finished; rethrow the earliest
     *  failure, if any. */
    void wait();

    unsigned workers() const { return workers_; }

  private:
    struct Job
    {
        std::size_t index;
        std::function<void()> fn;
    };

    void workerLoop();
    void runJob(const Job &job);
    void noteFailure(std::size_t index, std::exception_ptr e);

    mutable std::mutex mu_;
    std::condition_variable workCv_; //!< signals queued work / shutdown
    std::condition_variable idleCv_; //!< signals the pool drained
    std::deque<Job> queue_;
    std::vector<std::thread> threads_;
    std::size_t submitted_ = 0;
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
    std::size_t firstErrorIndex_ = 0;
    unsigned workers_;
};

/**
 * Run body(0..n-1) on up to min(jobs, n) workers. Returns when every
 * iteration completed; rethrows the exception of the lowest failing
 * index. @p jobs_override picks the worker count (0 = jobs()).
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 unsigned jobs_override = 0);

/**
 * Parallel map with deterministic result placement: out[i] = fn(i),
 * always, independent of completion order.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, Fn &&fn, unsigned jobs_override = 0)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    std::vector<R> out(n);
    parallelFor(
        n, [&](std::size_t i) { out[i] = fn(i); }, jobs_override);
    return out;
}

} // namespace zerodev

#endif // ZERODEV_COMMON_PARALLEL_HH
