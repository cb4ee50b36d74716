/**
 * @file
 * Tests for the live-telemetry subsystem: the Prometheus exposition the
 * sink renders from its job table (plus the exposition checker itself),
 * the TelemetrySink lifecycle (events, status.json, per-job gauges),
 * heartbeat monotonicity during a real run, the stall watchdog with its
 * snapshot-on-stall, the single-source-of-truth contract between live
 * status, metrics.prom and the v2 run report, and the provenance stamp
 * every JSON artifact carries.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/cmp_system.hh"
#include "obs/compare.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "obs/telemetry.hh"
#include "sim/runner.hh"
#include "test_util.hh"
#include "workload/workload.hh"

namespace zerodev
{
namespace
{

std::string
tmpDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "zdev_telem_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

Workload
cannealOn(const SystemConfig &cfg)
{
    return Workload::multiThreaded(profileByName("canneal"),
                                   cfg.coresPerSocket * cfg.sockets);
}

// --- Prometheus exposition ---------------------------------------------

obs::TelemetryOptions
fastOptions(const std::string &dir)
{
    obs::TelemetryOptions opt;
    opt.dir = dir;
    opt.flushPeriodSeconds = 0.02;
    opt.stallSeconds = 0.0; // watchdog off unless the test wants it
    opt.heartbeatEvery = 64;
    return opt;
}

/** Value of the sample line for @p series in @p text (NaN if absent). */
double
promValue(const std::string &text, const std::string &series)
{
    const std::string key = "\n" + series + " ";
    const std::size_t at = ("\n" + text).find(key);
    if (at == std::string::npos)
        return std::nan("");
    return std::strtod(text.c_str() + at + key.size() - 1, nullptr);
}

/** Number of lines of @p text that start with @p prefix. */
std::size_t
linesStartingWith(const std::string &text, const std::string &prefix)
{
    std::size_t n = 0;
    for (std::size_t at = 0; at < text.size();) {
        if (text.compare(at, prefix.size(), prefix) == 0)
            ++n;
        const std::size_t nl = text.find('\n', at);
        at = nl == std::string::npos ? text.size() : nl + 1;
    }
    return n;
}

TEST(Metrics, PrometheusTextPassesChecker)
{
    // Two finished jobs (one failed) and one running job.
    obs::TelemetrySink sink(fastOptions(tmpDir("prom")));
    obs::JobCompletion c;
    c.accesses = 10;
    c.wallSeconds = 0.05;
    c.maccessesPerSecond = 0.25;
    sink.beginJob("x", "f", "", 10)->complete(c);
    c.wallSeconds = 20.0;
    c.failed = true;
    sink.beginJob("y", "f", "", 10)->complete(c);
    sink.beginJob("z", "f", "", 40)->progress(10, 99);

    const std::string text = sink.prometheusText();
    std::string err;
    EXPECT_TRUE(obs::checkPrometheusText(text, &err)) << err << text;
    // Bucket bounds keep their shortest spelling.
    EXPECT_NE(text.find("le=\"0.1\""), std::string::npos) << text;
    for (const std::string job : {"x", "y", "z"}) {
        EXPECT_NE(text.find("zerodev_job_progress{job=\"" + job + "\"}"),
                  std::string::npos)
            << text;
    }
    EXPECT_EQ(
        promValue(text, "zerodev_job_maccesses_per_second{job=\"x\"}"),
        0.25);
    EXPECT_EQ(promValue(text, "zerodev_jobs_total"), 3.0);
    EXPECT_EQ(promValue(text, "zerodev_jobs_completed_total"), 1.0);
    EXPECT_EQ(promValue(text, "zerodev_jobs_failed_total"), 1.0);
    EXPECT_EQ(promValue(text, "zerodev_accesses_total"), 30.0);

    // Six bounds plus +Inf, one _sum and one _count, counting only the
    // two finished jobs.
    EXPECT_EQ(linesStartingWith(text, "zerodev_job_wall_seconds_bucket{"),
              7u);
    EXPECT_EQ(linesStartingWith(text, "zerodev_job_wall_seconds_sum "),
              1u);
    EXPECT_EQ(linesStartingWith(text, "zerodev_job_wall_seconds_count "),
              1u);
    EXPECT_EQ(
        promValue(text, "zerodev_job_wall_seconds_bucket{le=\"0.1\"}"),
        1.0);
    EXPECT_EQ(
        promValue(text, "zerodev_job_wall_seconds_bucket{le=\"60\"}"),
        2.0);
    EXPECT_EQ(promValue(text, "zerodev_job_wall_seconds_count"), 2.0);
    EXPECT_DOUBLE_EQ(promValue(text, "zerodev_job_wall_seconds_sum"),
                     20.05);
}

TEST(Metrics, RunningJobGaugesAreLive)
{
    // A mid-run scrape shows the same progress status.json does, not 0.
    obs::TelemetrySink sink(fastOptions(tmpDir("live")));
    obs::TelemetryJob *job = sink.beginJob("live", "f", "", 1000);
    job->progress(400, 1234);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    const std::string text = sink.prometheusText();
    const double progress =
        promValue(text, "zerodev_job_progress{job=\"live\"}");
    EXPECT_GT(progress, 0.0) << text;
    EXPECT_LT(progress, 1.0) << text;
    EXPECT_DOUBLE_EQ(progress, 0.4);
    EXPECT_GT(
        promValue(text, "zerodev_job_maccesses_per_second{job=\"live\"}"),
        0.0)
        << text;
    EXPECT_EQ(promValue(text, "zerodev_accesses_total"), 400.0);
}

TEST(Metrics, ReusedJobNameKeepsOneSeries)
{
    // A daemon running one figure twice registers two jobs of one
    // name: the later job's gauges replace the earlier one's.
    obs::TelemetrySink sink(fastOptions(tmpDir("reuse")));
    obs::JobCompletion c;
    c.accesses = 10;
    sink.beginJob("again", "f", "", 10)->complete(c);
    sink.beginJob("again", "f", "", 40)->progress(10, 1);

    const std::string text = sink.prometheusText();
    std::string err;
    EXPECT_TRUE(obs::checkPrometheusText(text, &err)) << err << text;
    EXPECT_EQ(linesStartingWith(text, "zerodev_job_progress{"), 1u);
    EXPECT_DOUBLE_EQ(
        promValue(text, "zerodev_job_progress{job=\"again\"}"), 0.25);
    EXPECT_EQ(promValue(text, "zerodev_jobs_total"), 2.0);
}

TEST(Metrics, CheckerRejectsBadExpositions)
{
    const char *bad[] = {
        // Sample value that is not a number.
        "zdev_x notanumber\n",
        // Illegal metric name.
        "2bad 1\n",
        // Duplicate series.
        "zdev_x 1\nzdev_x 2\n",
        // Duplicate TYPE line for one metric.
        "# TYPE zdev_x counter\n# TYPE zdev_x counter\nzdev_x 1\n",
        // TYPE after a sample of the same metric.
        "zdev_x 1\n# TYPE zdev_x counter\n",
        // Unterminated label value.
        "zdev_x{job=\"a} 1\n",
        // Bad TYPE keyword.
        "# TYPE zdev_x banana\nzdev_x 1\n",
    };
    for (const char *text : bad) {
        std::string err;
        EXPECT_FALSE(obs::checkPrometheusText(text, &err)) << text;
        EXPECT_FALSE(err.empty());
    }
    // The checker accepts a minimal valid document.
    EXPECT_TRUE(obs::checkPrometheusText(
        "# HELP zdev_x counts\n# TYPE zdev_x counter\nzdev_x 1\n"));
}

TEST(Metrics, ScrapeWhileHeartbeatingIsConsistent)
{
    // The TSan CI job runs this test and the 8-job sweep analogue under
    // instrumentation: scraping while a worker heartbeats never yields a
    // torn exposition, and the access counter never moves back.
    obs::TelemetrySink sink(fastOptions(tmpDir("race")));
    constexpr std::uint64_t kTotal = 1u << 24;
    obs::TelemetryJob *job = sink.beginJob("race", "f", "", kTotal);
    std::atomic<bool> stop{false};
    std::thread worker([&] {
        std::vector<std::uint64_t> dev(4, 0), incl(4, 0);
        std::uint64_t done = 0;
        while (!stop.load(std::memory_order_relaxed) && done < kTotal) {
            done += 64;
            ++dev[(done / 64) % 4];
            job->progress(done, done);
            job->provenance(dev, incl);
        }
    });
    double last = 0.0;
    for (int i = 0; i < 50; ++i) {
        const std::string text = sink.prometheusText();
        std::string err;
        EXPECT_TRUE(obs::checkPrometheusText(text, &err)) << err;
        const double done = promValue(text, "zerodev_accesses_total");
        EXPECT_GE(done, last);
        last = done;
    }
    stop.store(true, std::memory_order_relaxed);
    worker.join();
}

// --- sink lifecycle -----------------------------------------------------

TEST(Telemetry, SinkLifecycleAndEventLog)
{
    const std::string dir = tmpDir("lifecycle");
    {
        obs::TelemetrySink sink(fastOptions(dir));
        obs::TelemetryJob *job =
            sink.beginJob("demo", "fig0", "cafe", 100);
        job->progress(50, 1234);
        obs::JobCompletion c;
        c.workload = "demo";
        c.accesses = 100;
        c.cycles = 2000;
        c.wallSeconds = 0.5;
        c.maccessesPerSecond = 0.2;
        job->complete(c);
        sink.finalize();

        // The status document reaches the terminal state.
        const auto doc = obs::parseJson(sink.statusJson());
        ASSERT_TRUE(doc);
        EXPECT_EQ(doc->str("state"), "completed");
    }

    // Every event line parses and carries the envelope.
    const auto events = obs::readTextFile(dir + "/events.jsonl");
    ASSERT_TRUE(events);
    std::vector<std::string> kinds;
    std::size_t start = 0;
    while (start < events->size()) {
        const std::size_t nl = events->find('\n', start);
        const std::size_t end =
            nl == std::string::npos ? events->size() : nl;
        if (end > start) {
            const auto ev =
                obs::parseJson(events->substr(start, end - start));
            ASSERT_TRUE(ev);
            EXPECT_EQ(ev->str("schema"), "zerodev-events-v1");
            EXPECT_TRUE(ev->has("commit"));
            EXPECT_TRUE(ev->has("ts_ms"));
            kinds.push_back(ev->str("kind"));
        }
        start = end + 1;
    }
    const std::vector<std::string> want = {"sink_start", "job_start",
                                           "job_complete",
                                           "sink_finalize"};
    EXPECT_EQ(kinds, want);

    // The published files exist and validate.
    const auto status = obs::readTextFile(dir + "/status.json");
    ASSERT_TRUE(status);
    const auto doc = obs::parseJson(*status);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->str("schema"), "zerodev-status-v1");
    EXPECT_EQ(doc->str("state"), "completed");
    const auto prom = obs::readTextFile(dir + "/metrics.prom");
    ASSERT_TRUE(prom);
    std::string err;
    EXPECT_TRUE(obs::checkPrometheusText(*prom, &err)) << err;
}

TEST(Telemetry, FailedJobAbortsTheSink)
{
    const std::string dir = tmpDir("failed");
    obs::TelemetrySink sink(fastOptions(dir));
    obs::TelemetryJob *job = sink.beginJob("bad job/name", "f", "", 10);
    EXPECT_EQ(job->name(), "bad_job_name"); // slugified
    job->progress(7, 70);
    obs::JobCompletion c;
    c.accesses = 5;
    c.failed = true;
    c.error = "exploded";
    job->complete(c);
    sink.finalize();
    const auto doc = obs::parseJson(sink.statusJson());
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->str("state"), "aborted");
    const obs::JsonValue *jobs = doc->find("jobs");
    ASSERT_TRUE(jobs && jobs->isArray() && jobs->array.size() == 1);
    EXPECT_EQ(jobs->array[0].str("state"), "failed");
    EXPECT_EQ(jobs->array[0].str("error"), "exploded");
    EXPECT_DOUBLE_EQ(jobs->array[0].num("accesses"), 5.0);

    // A failed completion reporting fewer accesses than the heartbeats
    // did leaves the access counter where it was: it never moves back.
    const std::string prom = sink.prometheusText();
    EXPECT_EQ(promValue(prom, "zerodev_accesses_total"), 7.0);
    EXPECT_EQ(promValue(prom, "zerodev_jobs_failed_total"), 1.0);
}

// --- live runs ----------------------------------------------------------

TEST(Telemetry, HeartbeatsAreMonotonicDuringARun)
{
    const std::string dir = tmpDir("heartbeat");
    obs::TelemetrySink sink(fastOptions(dir));

    const SystemConfig cfg = testutil::tinyConfig();
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 30000;
    const std::uint64_t total = rc.accessesPerCore * w.threadCount();
    obs::TelemetryJob *job = sink.beginJob("hb", "fig0", "", total);
    rc.telemetry = job;

    // Sample the live progress counter while the run executes.
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> samples;
    std::thread poller([&] {
        std::uint64_t last = 0;
        while (!stop.load(std::memory_order_acquire)) {
            const std::uint64_t done = job->accessesDone();
            EXPECT_GE(done, last);
            EXPECT_LE(done, total);
            samples.push_back(done);
            last = done;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);
    stop.store(true, std::memory_order_release);
    poller.join();

    job->complete(obs::completionOf(res));
    sink.finalize();
    EXPECT_EQ(job->accessesDone(), total);
    EXPECT_EQ(res.accesses, total);
    EXPECT_GE(samples.size(), 2u);
    EXPECT_EQ(sink.stallsDetected(), 0u);
}

TEST(Telemetry, StatusMatchesRunReportExactly)
{
    // The single-source-of-truth contract: a finished job's status
    // entry republishes the RunResult numbers verbatim, so it agrees
    // with the v2 run report field for field.
    const std::string dir = tmpDir("truth");
    obs::TelemetrySink sink(fastOptions(dir));

    const SystemConfig cfg = testutil::tinyConfig();
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 5000;
    obs::LatencyProfiler prof;
    rc.latency = &prof;
    obs::TelemetryJob *job = sink.beginJob(
        "truth", "fig0", "", rc.accessesPerCore * w.threadCount());
    rc.telemetry = job;
    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);
    job->complete(obs::completionOf(res));
    sink.finalize();

    const auto status = obs::parseJson(sink.statusJson());
    ASSERT_TRUE(status);
    const obs::JsonValue *jobs = status->find("jobs");
    ASSERT_TRUE(jobs && jobs->isArray() && jobs->array.size() == 1);
    const obs::JsonValue &j = jobs->array[0];

    const auto report = obs::parseJson(obs::runReportJson(cfg, res));
    ASSERT_TRUE(report);
    const obs::JsonValue *result = report->find("result");
    const obs::JsonValue *profile = report->find("profile");
    ASSERT_TRUE(result);
    ASSERT_TRUE(profile);

    EXPECT_EQ(j.str("workload"), result->str("workload"));
    EXPECT_DOUBLE_EQ(j.num("accesses"), profile->num("simAccesses"));
    EXPECT_DOUBLE_EQ(j.num("cycles"), result->num("cycles"));
    EXPECT_DOUBLE_EQ(j.num("wall_seconds"),
                     profile->num("wallSeconds"));
    EXPECT_DOUBLE_EQ(j.num("maccesses_per_second"),
                     profile->num("maccessesPerSecond"));
    EXPECT_DOUBLE_EQ(j.num("accesses"),
                     static_cast<double>(res.accesses));
    EXPECT_DOUBLE_EQ(j.num("cycles"), static_cast<double>(res.cycles));
    EXPECT_DOUBLE_EQ(j.num("wall_seconds"), res.wallSeconds);
}

TEST(Telemetry, MetricsMatchRunReportExactly)
{
    // The same contract for metrics.prom, on a directory small enough
    // to produce DEVs: the final per-inducing-core samples are the v2
    // report's leakage arrays, and the access counter is the run's.
    const std::string dir = tmpDir("truth_prom");
    obs::TelemetrySink sink(fastOptions(dir));

    SystemConfig cfg = testutil::tinyConfig();
    cfg.directory.sizeRatio = 0.0625;
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 5000;
    obs::TelemetryJob *job = sink.beginJob(
        "truth", "fig0", "", rc.accessesPerCore * w.threadCount());
    rc.telemetry = job;
    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);
    job->complete(obs::completionOf(res));
    sink.finalize();
    ASSERT_GT(res.devInvalidations, 0u);

    const auto prom = obs::readTextFile(dir + "/metrics.prom");
    ASSERT_TRUE(prom);
    std::string err;
    EXPECT_TRUE(obs::checkPrometheusText(*prom, &err)) << err;
    EXPECT_EQ(promValue(*prom, "zerodev_accesses_total"),
              static_cast<double>(res.accesses));

    const auto report = obs::parseJson(obs::runReportJson(cfg, res));
    ASSERT_TRUE(report);
    const obs::JsonValue *leak = report->find("leakage");
    ASSERT_TRUE(leak);
    for (const auto &[series, key] :
         {std::pair<std::string, std::string>{
              "zerodev_dev_invalidations_total", "devByInducingCore"},
          {"zerodev_inclusion_invalidations_total",
           "inclusionByInducingCore"}}) {
        const obs::JsonValue *by = leak->find(key);
        ASSERT_TRUE(by && by->isArray()) << key;
        EXPECT_EQ(linesStartingWith(*prom, series + "{"),
                  by->array.size());
        for (std::size_t c = 0; c < by->array.size(); ++c) {
            EXPECT_EQ(promValue(*prom, series + "{inducing_core=\"" +
                                           std::to_string(c) + "\"}"),
                      by->array[c].number)
                << series << " core " << c;
        }
    }
}

TEST(Telemetry, WatchdogDetectsPlantedStallAndSnapshots)
{
    const std::string dir = tmpDir("stall");
    obs::TelemetryOptions opt = fastOptions(dir);
    opt.stallSeconds = 0.15;
    opt.stallSnapshots = true;
    obs::TelemetrySink sink(opt);

    const SystemConfig cfg = testutil::tinyConfig();
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 20000;
    const std::uint64_t total = rc.accessesPerCore * w.threadCount();
    obs::TelemetryJob *job = sink.beginJob("stally", "fig0", "", total);
    rc.telemetry = job;
    rc.plantStallAt = total / 2;
    rc.plantStallSeconds = 0.6; // 4x the watchdog window

    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);
    job->complete(obs::completionOf(res));
    sink.finalize();

    // The watchdog fired exactly once (sticky until progress resumed),
    // the event log carries the stall, and the snapshot-on-stall
    // checkpoint was serviced at the next heartbeat boundary.
    EXPECT_EQ(sink.stallsDetected(), 1u);
    const auto events = obs::readTextFile(dir + "/events.jsonl");
    ASSERT_TRUE(events);
    EXPECT_NE(events->find("\"kind\":\"stall\""), std::string::npos);
    EXPECT_NE(events->find("\"no_progress_seconds\""),
              std::string::npos);
    const std::string snap = dir + "/stall-stally.ckpt";
    ASSERT_TRUE(std::filesystem::exists(snap)) << snap;
    EXPECT_GT(std::filesystem::file_size(snap), 0u);

    // The run itself still finished and the terminal state is clean.
    EXPECT_EQ(res.accesses, total);
    const auto doc = obs::parseJson(sink.statusJson());
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->str("state"), "completed");
    EXPECT_DOUBLE_EQ(doc->num("stalls"), 1.0);
}

// --- provenance stamps --------------------------------------------------

/** Parse @p json and require the schema/commit provenance stamp. */
void
expectStamped(const std::string &json, const std::string &schema)
{
    const auto doc = obs::parseJson(json);
    ASSERT_TRUE(doc) << json.substr(0, 200);
    EXPECT_EQ(doc->str("schema"), schema);
    EXPECT_TRUE(doc->has("commit"));
}

TEST(Telemetry, EveryJsonArtifactCarriesTheProvenanceStamp)
{
    const SystemConfig cfg = testutil::tinyConfig();
    const Workload w = cannealOn(cfg);
    RunConfig rc;
    rc.accessesPerCore = 2000;
    obs::IntervalSampler sampler(1000);
    rc.sampler = &sampler;
    CmpSystem sys(cfg);
    const RunResult res = run(sys, w, rc);

    // Run report (v2).
    expectStamped(obs::runReportJson(cfg, res), "zerodev-run-report-v2");

    // Interval-sampler series.
    expectStamped(sampler.toJson(), "zerodev-interval-stats-v1");

    // Compare verdict.
    std::vector<obs::LoadedReport> reports;
    std::string err;
    const std::string dir = tmpDir("stamp");
    ASSERT_TRUE(obs::writeRunReport(dir + "/r.json", cfg, res));
    ASSERT_TRUE(obs::loadReports(dir + "/r.json", reports, &err)) << err;
    const obs::CompareResult cmp =
        obs::compareReports(reports, reports, obs::CompareOptions{});
    expectStamped(cmp.verdictJson(), "zerodev-compare-v1");

    // Status document.
    obs::TelemetrySink sink(fastOptions(tmpDir("stamp2")));
    sink.finalize();
    expectStamped(sink.statusJson(), "zerodev-status-v1");
}

} // namespace
} // namespace zerodev
