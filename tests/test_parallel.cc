/**
 * @file
 * Parallel sweep engine tests: worker-pool ordering and error
 * semantics, the jobs=1 serial fallback, and the headline guarantee —
 * a parallel sweep is *bit-identical* to the serial one: same
 * RunResults, same v2 run-report bytes (modulo the host-dependent
 * profile section), same trajectory lines (modulo sim-rate), same
 * rendered table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "obs/json.hh"
#include "test_util.hh"
#include "workload/workload.hh"

namespace zerodev
{
namespace
{

namespace fs = std::filesystem;

TEST(Jobs, SetJobsOverridesDefault)
{
    setJobs(3);
    EXPECT_EQ(jobs(), 3u);
    setJobs(0);
    EXPECT_EQ(jobs(), defaultJobs());
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(ParallelMap, ResultsLandBySubmissionIndex)
{
    // Later submissions sleep less, so completion order inverts
    // submission order on a multi-worker pool; results must not.
    const std::size_t n = 32;
    auto out = parallelMap(
        n,
        [&](std::size_t i) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(50 * (n - i)));
            return i * i + 1;
        },
        8);
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i + 1) << i;
}

TEST(ParallelFor, RethrowsLowestFailingIndex)
{
    try {
        parallelFor(
            16,
            [](std::size_t i) {
                if (i == 3 || i == 11)
                    throw std::runtime_error("job " + std::to_string(i));
            },
            4);
        FAIL() << "expected parallelFor to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 3");
    }
}

TEST(ParallelFor, JobsOneRunsInlineOnCallingThread)
{
    const auto caller = std::this_thread::get_id();
    std::size_t ran = 0;
    parallelFor(
        8,
        [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            ++ran; // unsynchronised on purpose: inline means serial
        },
        1);
    EXPECT_EQ(ran, 8u);
}

TEST(ThreadPool, DrainsAndStaysReusableAfterWait)
{
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 10);
    for (int i = 0; i < 5; ++i)
        pool.submit([&] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 15);
}

TEST(ThreadPool, NestedPoolRunsInlineOnTheWorker)
{
    // A pool built inside a parallel body must not multiply the thread
    // count: it gets one worker and runs every job on the caller.
    std::atomic<int> nestedJobs{0};
    parallelFor(
        4,
        [&](std::size_t) {
            ThreadPool inner(4);
            EXPECT_EQ(inner.workers(), 1u);
            const auto self = std::this_thread::get_id();
            for (int j = 0; j < 3; ++j) {
                inner.submit([&] {
                    EXPECT_EQ(std::this_thread::get_id(), self);
                    ++nestedJobs;
                });
            }
            inner.wait();
        },
        2);
    EXPECT_EQ(nestedJobs.load(), 12);
    ThreadPool outer(2);
    EXPECT_EQ(outer.workers(), 2u);
}

TEST(ThreadPool, WaitClearsErrorForReuse)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    pool.submit([] {});
    EXPECT_NO_THROW(pool.wait());
}

// ---------------------------------------------------------------------
// Serial-vs-parallel determinism
// ---------------------------------------------------------------------

/** Blank the host-dependent profile section of a v2 report: everything
 *  between "profile":{ and its closing brace (the profile object is
 *  flat, so the first '}' closes it). */
std::string
stripProfile(std::string doc)
{
    const std::string key = "\"profile\":{";
    const std::size_t beg = doc.find(key);
    EXPECT_NE(beg, std::string::npos);
    const std::size_t end = doc.find('}', beg + key.size());
    EXPECT_NE(end, std::string::npos);
    return doc.erase(beg + key.size(), end - beg - key.size());
}

/** Remove every "maccessesPerSecond":<number> field (host-dependent)
 *  from a trajectory line. */
std::string
stripSimRate(std::string line)
{
    const std::string key = ",\"maccessesPerSecond\":";
    for (std::size_t at; (at = line.find(key)) != std::string::npos;) {
        std::size_t end = at + key.size();
        while (end < line.size() && line[end] != ',' && line[end] != '}')
            ++end;
        line.erase(at, end - at);
    }
    return line;
}

std::vector<bench::SweepJob>
determinismJobs()
{
    std::vector<bench::SweepJob> jobs;
    for (const char *app : {"canneal", "mcf"}) {
        const AppProfile p = profileByName(app);
        const Workload w = bench::workloadFor(p, 2);
        jobs.push_back({testutil::tinyConfig(), w, 1500});
        jobs.push_back({testutil::tinyZeroDev(), w, 1500});
        jobs.push_back({testutil::tinyZeroDev(0.0), w, 1500});
    }
    return jobs;
}

/** Run the sweep with @p job_count workers, reports into @p dir. */
void
sweepInto(const fs::path &dir, unsigned job_count,
          std::vector<RunResult> &out)
{
    fs::create_directories(dir);
    ASSERT_EQ(setenv("ZERODEV_REPORT_DIR", dir.c_str(), 1), 0)
        << "setenv failed";
    bench::BenchReporter::instance().reset();
    setJobs(job_count);
    out = bench::runSweep(determinismJobs());
    bench::BenchReporter::instance().flush();
    setJobs(0);
}

TEST(ParallelSweep, BitIdenticalToSerial)
{
    const fs::path root =
        fs::path(::testing::TempDir()) / "zerodev_par_det";
    fs::remove_all(root);
    const fs::path serial_dir = root / "serial";
    const fs::path parallel_dir = root / "parallel";

    bench::banner("par_det", "determinism test sweep");

    std::vector<RunResult> serial, parallel;
    sweepInto(serial_dir, 1, serial);
    sweepInto(parallel_dir, 4, parallel);
    unsetenv("ZERODEV_REPORT_DIR");

    // Simulated results identical, in submission order.
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << i;
        EXPECT_EQ(serial[i].coreCacheMisses, parallel[i].coreCacheMisses)
            << i;
        EXPECT_EQ(serial[i].trafficBytes, parallel[i].trafficBytes) << i;
        EXPECT_EQ(serial[i].devInvalidations,
                  parallel[i].devInvalidations)
            << i;
        EXPECT_EQ(serial[i].accesses, parallel[i].accesses) << i;
    }

    // Same report files, byte-identical modulo the profile section.
    std::size_t reports = 0;
    for (const auto &entry : fs::directory_iterator(serial_dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("par_det_run", 0) != 0)
            continue;
        ++reports;
        const auto a = obs::readTextFile(entry.path().string());
        const auto b =
            obs::readTextFile((parallel_dir / name).string());
        ASSERT_TRUE(a.has_value()) << name;
        ASSERT_TRUE(b.has_value()) << name << " missing in parallel run";
        EXPECT_EQ(stripProfile(*a), stripProfile(*b)) << name;
    }
    EXPECT_EQ(reports, determinismJobs().size());

    // Same trajectory line modulo the informational sim-rate fields.
    const auto ta =
        obs::readTextFile((serial_dir / "BENCH_par_det.json").string());
    const auto tb = obs::readTextFile(
        (parallel_dir / "BENCH_par_det.json").string());
    ASSERT_TRUE(ta.has_value());
    ASSERT_TRUE(tb.has_value());
    EXPECT_EQ(stripSimRate(*ta), stripSimRate(*tb));

    // Tables built from slot-keyed rows render identically.
    const auto render = [](const std::vector<RunResult> &results) {
        Table t({"i", "cycles"});
        for (std::size_t i = 0; i < results.size(); ++i) {
            t.setRow(results.size() - 1 - i,
                     {std::to_string(results.size() - 1 - i),
                      std::to_string(
                          results[results.size() - 1 - i].cycles)});
        }
        return t.render();
    };
    EXPECT_EQ(render(serial), render(parallel));
}

TEST(Claims, FailedClaimsCountsAtomically)
{
    const int before = failedClaims();
    parallelFor(
        8, [](std::size_t) { claim(false, "intentional test claim"); },
        4);
    EXPECT_EQ(failedClaims(), before + 8);
}

} // namespace
} // namespace zerodev
