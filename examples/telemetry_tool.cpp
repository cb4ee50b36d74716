/**
 * @file
 * Telemetry utility: a `top`-style live view of a running sweep, plus
 * the validation commands CI uses to gate the telemetry subsystem.
 *
 * `top` tails the status.json / events.jsonl pair a TelemetrySink
 * publishes (set ZERODEV_TELEMETRY_DIR on any tool or benchmark to get
 * one) and renders a per-job progress table until the sink reaches a
 * terminal state. `check-prom` and `check-status` validate the
 * Prometheus exposition and the status document; `selftest-stall` runs
 * a real simulation with a planted stall against a live sink and
 * verifies the watchdog fires and the snapshot-on-stall checkpoint
 * lands — the telemetry analogue of `fuzz_tool --plant-fault`, and like
 * it the *expected* outcome is the detection exit code 4.
 *
 * Exit codes (shared with trace_tool / fuzz_tool):
 *   0  success (for `selftest-stall`: the watchdog did NOT fire)
 *   1  runtime failure (I/O)
 *   2  usage error (unknown subcommand / missing operands)
 *   3  an input file could not be read
 *   4  validation failure — or, for `selftest-stall`, stall detected
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "common/config.hh"
#include "common/exit_codes.hh"
#include "core/cmp_system.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "sim/runner.hh"
#include "workload/workload.hh"

using namespace zerodev;

namespace
{

const char *const kUsage =
    "usage: telemetry_tool <subcommand> [args]\n"
    "\n"
    "subcommands:\n"
    "  top <dir> [--once] [--interval S]\n"
    "      live view of a telemetry directory: renders status.json as\n"
    "      a job table and tails events.jsonl, refreshing every S\n"
    "      seconds (default 1) until the sink reaches a terminal\n"
    "      state; --once prints a single frame and exits\n"
    "  check-prom <file>\n"
    "      validate a Prometheus text exposition (metrics.prom)\n"
    "  check-status <file> [--state S] [--min-jobs N]\n"
    "      validate a status.json document: schema + commit stamp and\n"
    "      per-job fields; optionally require sink state S and at\n"
    "      least N jobs\n"
    "  selftest-stall <dir> [--stall-seconds S]\n"
    "      run a small simulation with a planted stall against a live\n"
    "      sink in <dir>; the watchdog must emit a `stall` event and\n"
    "      the snapshot-on-stall checkpoint must appear. Detection\n"
    "      exits 4 (the expected outcome, as with fuzz_tool\n"
    "      --plant-fault); a silent watchdog exits 0\n"
    "\n"
    "exit codes: 0 ok, 1 runtime failure, 2 usage error, 3 unreadable\n"
    "            input, 4 validation failure / stall detected\n";

int
usage(const char *why = nullptr)
{
    if (why)
        std::fprintf(stderr, "telemetry_tool: %s\n", why);
    std::fputs(kUsage, stderr);
    return kExitUsage;
}

bool
wantsHelp(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h"))
            return true;
    }
    return false;
}

std::optional<double>
parseSeconds(const char *s)
{
    if (!s || !*s)
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (errno != 0 || *end != '\0' || v <= 0.0)
        return std::nullopt;
    return v;
}

// --- top ----------------------------------------------------------------

/** Render one status document as a job table; returns the sink state. */
std::string
renderStatus(const obs::JsonValue &doc)
{
    const std::string state = doc.str("state", "?");
    std::printf("zerodev telemetry  state=%s  stalls=%.0f  commit=%s\n",
                state.c_str(), doc.num("stalls"),
                doc.str("commit", "-").c_str());
    std::printf("%-24s %-9s %9s %14s %10s %8s\n", "job", "state",
                "progress", "accesses", "Macc/s", "eta");
    const obs::JsonValue *jobs = doc.find("jobs");
    if (jobs && jobs->isArray()) {
        for (const obs::JsonValue &j : jobs->array) {
            const double total = j.num("total_accesses");
            std::printf("%-24s %-9s %8.1f%% %14.0f %10.2f %7.0fs\n",
                        j.str("name", "?").c_str(),
                        j.str("state", "?").c_str(),
                        100.0 * j.num("progress"), j.num("accesses"),
                        j.num("maccesses_per_second"),
                        j.num("eta_seconds"));
            (void)total;
        }
    }
    return state;
}

/** Print the last @p n event lines (kind + job only, compactly). */
void
renderEvents(const std::string &dir, std::size_t n)
{
    const auto text = obs::readTextFile(dir + "/events.jsonl");
    if (!text)
        return;
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text->size()) {
        const std::size_t nl = text->find('\n', start);
        const std::size_t end = nl == std::string::npos ? text->size() : nl;
        if (end > start)
            lines.push_back(text->substr(start, end - start));
        start = end + 1;
    }
    const std::size_t first = lines.size() > n ? lines.size() - n : 0;
    std::printf("\nrecent events:\n");
    for (std::size_t i = first; i < lines.size(); ++i) {
        const auto ev = obs::parseJson(lines[i]);
        if (!ev)
            continue;
        const std::string job = ev->str("job");
        std::printf("  %-14s %s\n", ev->str("kind", "?").c_str(),
                    job.empty() ? "-" : job.c_str());
    }
}

int
cmdTop(int argc, char **argv)
{
    if (argc < 3)
        return usage("top needs a telemetry directory");
    const std::string dir = argv[2];
    bool once = false;
    double interval = 1.0;
    for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--once")) {
            once = true;
        } else if (!std::strcmp(argv[i], "--interval") && i + 1 < argc) {
            const auto s = parseSeconds(argv[++i]);
            if (!s)
                return usage("--interval needs a positive number");
            interval = *s;
        } else {
            return usage("unknown top argument");
        }
    }

    while (true) {
        const auto text = obs::readTextFile(dir + "/status.json");
        if (!text) {
            if (once) {
                std::fprintf(stderr, "telemetry_tool: no status.json in %s\n",
                             dir.c_str());
                return kExitLoad;
            }
            std::printf("waiting for %s/status.json ...\n", dir.c_str());
            std::this_thread::sleep_for(
                std::chrono::duration<double>(interval));
            continue;
        }
        std::string err;
        const auto doc = obs::parseJson(*text, &err);
        if (!doc) {
            // A torn read is impossible (the sink renames into place);
            // a parse failure means a genuinely bad document.
            std::fprintf(stderr, "telemetry_tool: bad status.json: %s\n",
                         err.c_str());
            return kExitCheckFailed;
        }
        if (!once)
            std::printf("\033[2J\033[H"); // clear screen, home cursor
        const std::string state = renderStatus(*doc);
        renderEvents(dir, 6);
        std::fflush(stdout);
        if (once || state != "running")
            return kExitOk;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
    }
}

// --- check-prom ---------------------------------------------------------

int
cmdCheckProm(int argc, char **argv)
{
    if (argc < 3)
        return usage("check-prom needs a file");
    const auto text = obs::readTextFile(argv[2]);
    if (!text) {
        std::fprintf(stderr, "telemetry_tool: cannot read %s\n", argv[2]);
        return kExitLoad;
    }
    std::string err;
    if (!obs::checkPrometheusText(*text, &err)) {
        std::fprintf(stderr, "telemetry_tool: %s: %s\n", argv[2],
                     err.c_str());
        return kExitCheckFailed;
    }
    std::printf("%s: valid Prometheus exposition\n", argv[2]);
    return kExitOk;
}

// --- check-status -------------------------------------------------------

int
checkFail(const char *file, const std::string &why)
{
    std::fprintf(stderr, "telemetry_tool: %s: %s\n", file, why.c_str());
    return kExitCheckFailed;
}

int
cmdCheckStatus(int argc, char **argv)
{
    if (argc < 3)
        return usage("check-status needs a file");
    const char *file = argv[2];
    std::string wantState;
    std::size_t minJobs = 0;
    for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--state") && i + 1 < argc) {
            wantState = argv[++i];
        } else if (!std::strcmp(argv[i], "--min-jobs") && i + 1 < argc) {
            minJobs = std::strtoull(argv[++i], nullptr, 10);
        } else {
            return usage("unknown check-status argument");
        }
    }

    const auto text = obs::readTextFile(file);
    if (!text) {
        std::fprintf(stderr, "telemetry_tool: cannot read %s\n", file);
        return kExitLoad;
    }
    std::string err;
    const auto doc = obs::parseJson(*text, &err);
    if (!doc)
        return checkFail(file, "not valid JSON: " + err);
    if (doc->str("schema") != "zerodev-status-v1")
        return checkFail(file, "schema is not zerodev-status-v1");
    if (!doc->has("commit"))
        return checkFail(file, "missing provenance commit stamp");
    if (!doc->has("generated_ms"))
        return checkFail(file, "missing generated_ms");
    const std::string state = doc->str("state");
    if (state != "running" && state != "completed" && state != "aborted")
        return checkFail(file, "unknown sink state '" + state + "'");
    if (!wantState.empty() && state != wantState) {
        return checkFail(file, "sink state is '" + state +
                                   "', expected '" + wantState + "'");
    }
    const obs::JsonValue *jobs = doc->find("jobs");
    if (!jobs || !jobs->isArray())
        return checkFail(file, "missing jobs array");
    if (jobs->array.size() < minJobs) {
        return checkFail(file, "only " +
                                   std::to_string(jobs->array.size()) +
                                   " jobs, expected >= " +
                                   std::to_string(minJobs));
    }
    for (const obs::JsonValue &j : jobs->array) {
        const std::string name = j.str("name", "?");
        for (const char *k :
             {"name", "state", "total_accesses", "accesses", "progress"}) {
            if (!j.has(k))
                return checkFail(file, "job " + name + " missing " + k);
        }
        const double p = j.num("progress");
        if (p < 0.0 || p > 1.0 + 1e-9) {
            return checkFail(file, "job " + name +
                                       " progress out of range");
        }
        const std::string js = j.str("state");
        if (js != "running" && js != "stalled" && js != "completed" &&
            js != "failed") {
            return checkFail(file,
                             "job " + name + " has unknown state " + js);
        }
    }
    std::printf("%s: valid status document (%zu jobs, state %s)\n", file,
                jobs->array.size(), state.c_str());
    return kExitOk;
}

// --- selftest-stall -----------------------------------------------------

int
cmdSelftestStall(int argc, char **argv)
{
    if (argc < 3)
        return usage("selftest-stall needs an output directory");
    const std::string dir = argv[2];
    double stallSeconds = 0.4;
    for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--stall-seconds") && i + 1 < argc) {
            const auto s = parseSeconds(argv[++i]);
            if (!s)
                return usage("--stall-seconds needs a positive number");
            stallSeconds = *s;
        } else {
            return usage("unknown selftest-stall argument");
        }
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "telemetry_tool: cannot create %s: %s\n",
                     dir.c_str(), ec.message().c_str());
        return kExitRuntime;
    }

    // A deterministic sink with an aggressive watchdog: the publisher
    // beats every 50 ms and declares a stall after `stallSeconds` of
    // no progress, while the planted sleep holds the worker for 3x
    // that window.
    obs::TelemetryOptions topt;
    topt.dir = dir;
    topt.flushPeriodSeconds = 0.05;
    topt.stallSeconds = stallSeconds;
    topt.stallSnapshots = true;
    topt.heartbeatEvery = 256;
    // Honour the bench checkpoint directory for the stall snapshot
    // (recursively created, exit 2 when unwritable — same contract as
    // every other ZERODEV_*_DIR consumer).
    topt.snapshotDir = obs::outputDirFromEnv("ZERODEV_SNAPSHOT_DIR");
    obs::TelemetrySink sink(topt);

    const AppProfile profile = profileByName("canneal");
    const Workload workload = Workload::multiThreaded(profile, 4);
    RunConfig rc;
    rc.accessesPerCore = 8000;
    const std::uint64_t total =
        rc.accessesPerCore * workload.threadCount();
    obs::TelemetryJob *job =
        sink.beginJob("selftest_stall", "selftest", "", total);
    rc.telemetry = job;
    rc.plantStallAt = total / 4;
    rc.plantStallSeconds = 3.0 * stallSeconds;

    SystemConfig cfg = makeEightCoreConfig();
    CmpSystem sys(cfg);
    const RunResult res = run(sys, workload, rc);
    job->complete(obs::completionOf(res));
    sink.finalize();

    const std::uint64_t stalls = sink.stallsDetected();
    const std::string snapDir =
        topt.snapshotDir.empty() ? dir : topt.snapshotDir;
    const std::string snap = snapDir + "/stall-selftest_stall.ckpt";
    const bool haveSnapshot = std::filesystem::exists(snap);
    const auto events = obs::readTextFile(dir + "/events.jsonl");
    const bool haveEvent =
        events && events->find("\"kind\":\"stall\"") != std::string::npos;

    std::printf("planted %.1fs stall at access %llu: %llu stall(s) "
                "detected, event %s, snapshot %s\n",
                rc.plantStallSeconds,
                static_cast<unsigned long long>(rc.plantStallAt),
                static_cast<unsigned long long>(stalls),
                haveEvent ? "logged" : "MISSING",
                haveSnapshot ? snap.c_str() : "MISSING");
    if (stalls > 0 && haveEvent && haveSnapshot) {
        std::printf("watchdog detected the planted stall (exit %d, the "
                    "expected outcome)\n",
                    kExitCheckFailed);
        return kExitCheckFailed;
    }
    std::printf("watchdog did NOT detect the planted stall\n");
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (wantsHelp(argc, argv) ||
        (argc >= 2 && !std::strcmp(argv[1], "help"))) {
        std::fputs(kUsage, stdout);
        return kExitOk;
    }
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "top")
        return cmdTop(argc, argv);
    if (cmd == "check-prom")
        return cmdCheckProm(argc, argv);
    if (cmd == "check-status")
        return cmdCheckStatus(argc, argv);
    if (cmd == "selftest-stall")
        return cmdSelftestStall(argc, argv);
    return usage("unknown subcommand");
}
