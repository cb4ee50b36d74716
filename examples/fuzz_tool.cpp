/**
 * @file
 * Differential config-equivalence fuzz farm CLI.
 *
 * `run` drives the differential harness (src/verify/) over adversarial
 * access streams, one seed per job, across the standard config cross
 * product: unbounded directory, sparse baselines, every ZeroDEV flavour,
 * and multi-socket splits. Any divergence — a load observing a different
 * value, a destroyed memory copy being served, an invariant violation, a
 * strict core-cache-state mismatch — is automatically ddmin-shrunk to a
 * minimal repro and written out next to a machine-readable
 * `zerodev-fuzz-report-v1` JSON report. `shrink` and `replay` operate on
 * saved traces (the nightly-failure reproduction workflow); `gen` writes
 * a fuzz stream to a trace file for corpus seeding.
 *
 * Exit codes (aligned with trace_tool — see docs/OBSERVABILITY.md):
 *   0  success / no divergence
 *   1  runtime failure (I/O)
 *   2  usage error
 *   3  trace or snapshot load failure
 *   4  divergence detected
 */

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/exit_codes.hh"
#include "common/parallel.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "verify/differ.hh"
#include "verify/fuzz_batch.hh"
#include "verify/shrink.hh"
#include "workload/trace.hh"

using namespace zerodev;
using namespace zerodev::verify;

namespace
{

const char *const kUsage =
    "usage: fuzz_tool <subcommand> [args]\n"
    "\n"
    "subcommands:\n"
    "  run [--seeds N] [--minutes M] [--jobs J] [--accesses A]\n"
    "      [--cores C] [--out DIR] [--quick] [--plant-fault I,B,S]\n"
    "      [--snapshot-every K] [--daemon SOCKET]\n"
    "      differentially fuzz the config cross product. Runs N seeds\n"
    "      (default 8), or waves of seeds until M minutes elapsed when\n"
    "      --minutes is given. On divergence the trace is ddmin-shrunk\n"
    "      and both traces land in DIR (default .) next to\n"
    "      fuzz-report.json. --plant-fault injects a synthetic\n"
    "      mis-observation into variant I for block B after S stores\n"
    "      (pipeline self-test only). --snapshot-every checkpoints the\n"
    "      lockstep state every K accesses and saves the last\n"
    "      pre-divergence checkpoint as divergence-seed<S>.ckpt.\n"
    "      --daemon submits the batch to a zerodevd service socket\n"
    "      instead of running in-process, polls it to completion, and\n"
    "      copies fuzz-report.json into DIR; the report and exit code\n"
    "      are identical to a direct run (--minutes is not available\n"
    "      in daemon mode). --jobs bounds the threads of the whole\n"
    "      run: seed waves and each seed's parallel lockstep share J.\n"
    "  shrink <trace> [--out FILE] [--quick]\n"
    "      ddmin-shrink a diverging trace to a minimal repro\n"
    "      (FILE defaults to <trace>.min.trc)\n"
    "  replay <trace> [--quick] [--plant-fault I,B,S]\n"
    "      [--snapshot-every K] [--save-checkpoint FILE]\n"
    "      [--restore FILE]\n"
    "      replay a trace through the differential harness. With\n"
    "      --snapshot-every, a diverging replay is fast-forwarded: the\n"
    "      last pre-divergence checkpoint is restored and only the tail\n"
    "      re-runs (the replayed fraction is printed, and the\n"
    "      checkpoint is saved with --save-checkpoint). --restore skips\n"
    "      straight to a saved checkpoint and replays only the tail.\n"
    "  gen <seed> <cores> <accesses> <file>\n"
    "      write the fuzz stream for a seed to a trace file\n"
    "\n"
    "exit codes: 0 ok/no divergence, 1 runtime failure, 2 usage error,\n"
    "            3 trace/snapshot load failure, 4 divergence detected\n";

int
usage(const char *why = nullptr)
{
    if (why)
        std::fprintf(stderr, "fuzz_tool: %s\n", why);
    std::fputs(kUsage, stderr);
    return kExitUsage;
}

/** Strict decimal parse; nullopt on garbage, sign or overflow. */
std::optional<std::uint64_t>
parseCount(const char *s)
{
    if (!s || !*s)
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0' || s[0] == '-')
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

std::optional<std::uint32_t>
parseCores(const char *s)
{
    const auto v = parseCount(s);
    if (!v || *v == 0 || *v > kMaxCores * kMaxSockets)
        return std::nullopt;
    return static_cast<std::uint32_t>(*v);
}

/** "I,B,S" (variant index, block, store count) for --plant-fault. */
std::optional<FaultHook>
parseFault(const char *s)
{
    FaultHook hook;
    unsigned long long i = 0, b = 0, n = 0;
    char extra = 0;
    if (std::sscanf(s, "%llu,%llu,%llu%c", &i, &b, &n, &extra) != 3)
        return std::nullopt;
    hook.enabled = true;
    hook.instance = static_cast<std::size_t>(i);
    hook.block = b;
    hook.afterStores = n;
    return hook;
}

bool
writeTrace(const std::string &path, std::uint32_t cores,
           const std::vector<TraceRecord> &records)
{
    TraceWriter w(path, cores);
    for (const TraceRecord &rec : records)
        w.append(rec);
    w.close();
    return w.written() == records.size();
}

void
printDivergence(const std::string &label, const Divergence &d)
{
    std::printf("DIVERGENCE %s: rule=%s instance=%s access=%" PRIu64
                "\n  %s\n",
                label.c_str(), d.rule.c_str(), d.instance.c_str(),
                d.accessIndex, d.detail.c_str());
}

/**
 * Daemon mode: submit the batch as a service fuzz job, poll it to a
 * terminal state, and copy fuzz-report.json from the result document
 * into the local output directory. Because the daemon executes through
 * the same verify::runFuzzBatch engine, the report and exit code are
 * identical to a direct run.
 */
int
cmdDaemonRun(const FuzzBatchOptions &opt, const std::string &socket)
{
    obs::JsonWriter job;
    job.beginObject();
    job.field("type", "fuzz");
    job.field("figure", "fuzz");
    job.field("seeds", opt.seeds);
    job.field("accesses", opt.accesses);
    job.field("cores", static_cast<std::uint64_t>(opt.cores));
    if (opt.quick)
        job.field("quick", true);
    if (opt.snapshotEvery)
        job.field("snapshot_every", opt.snapshotEvery);
    if (opt.fault.enabled) {
        char buf[80];
        std::snprintf(buf, sizeof(buf), "%zu,%" PRIu64 ",%" PRIu64,
                      opt.fault.instance,
                      static_cast<std::uint64_t>(opt.fault.block),
                      static_cast<std::uint64_t>(
                          opt.fault.afterStores));
        job.field("fault", buf);
    }
    job.endObject();

    service::ServiceClient client;
    std::string err;
    if (!client.connect(socket, &err)) {
        std::fprintf(stderr, "fuzz_tool: %s\n", err.c_str());
        return kExitRuntime;
    }
    const auto fetch = [&](const std::string &req)
        -> std::optional<obs::JsonValue> {
        auto resp = client.request(req, &err);
        if (!resp) {
            std::fprintf(stderr, "fuzz_tool: %s\n", err.c_str());
            return std::nullopt;
        }
        const obs::JsonValue *ok = resp->find("ok");
        if (!ok || !ok->isBool() || !ok->boolean) {
            const std::string detail = resp->str("detail");
            std::fprintf(stderr, "fuzz_tool: daemon error: %s%s%s\n",
                         resp->str("error").c_str(),
                         detail.empty() ? "" : ": ", detail.c_str());
            return std::nullopt;
        }
        return resp;
    };

    const auto sub = fetch(service::rpcSubmitJson(job.str()));
    if (!sub)
        return kExitRuntime;
    const std::string id = sub->str("id");
    std::printf("fuzz: submitted %s to %s\n", id.c_str(),
                socket.c_str());

    std::string state;
    for (;;) {
        const auto st = fetch(service::rpcRequestJson("status", id));
        if (!st)
            return kExitRuntime;
        state = st->str("state");
        if (state == "DONE" || state == "FAILED" ||
            state == "CANCELLED")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    if (state != "DONE") {
        std::fprintf(stderr, "fuzz_tool: job %s ended %s\n", id.c_str(),
                     state.c_str());
        return kExitRuntime;
    }

    const auto res = fetch(service::rpcRequestJson("result", id));
    if (!res)
        return kExitRuntime;
    const obs::JsonValue *result = res->find("result");
    const obs::JsonValue *report =
        result ? result->find("fuzz_report") : nullptr;
    if (!report) {
        std::fprintf(stderr, "fuzz_tool: job %s has no fuzz report\n",
                     id.c_str());
        return kExitRuntime;
    }

    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "fuzz_tool: cannot create %s: %s\n",
                     opt.outDir.c_str(), ec.message().c_str());
        return kExitRuntime;
    }
    const std::string reportPath = opt.outDir + "/fuzz-report.json";
    if (!obs::writeTextFile(reportPath,
                            obs::renderJson(*report) + "\n"))
        return kExitRuntime;

    int code = kExitOk;
    if (const obs::JsonValue *ec2 = result->find("exit_code"))
        code = static_cast<int>(ec2->number);
    std::printf("fuzz: job %s DONE -> %s\n", id.c_str(),
                reportPath.c_str());
    if (code == kExitOk)
        std::printf("no divergence\n");
    return code;
}

int
cmdRun(int argc, char **argv)
{
    FuzzBatchOptions opt;
    std::string daemonSocket;
    bool minutesSet = false, jobsSet = false;
    for (int i = 2; i < argc; ++i) {
        const auto want = [&](const char *flag) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc)
                return false;
            return true;
        };
        if (want("--seeds")) {
            const auto v = parseCount(argv[++i]);
            if (!v || *v == 0)
                return usage("run: --seeds needs a positive count");
            opt.seeds = *v;
        } else if (want("--minutes")) {
            const auto v = parseCount(argv[++i]);
            if (!v)
                return usage("run: --minutes needs a count");
            opt.minutes = *v;
            minutesSet = true;
        } else if (want("--jobs")) {
            const auto v = parseCount(argv[++i]);
            if (!v || *v == 0)
                return usage("run: --jobs needs a positive count");
            opt.jobs = static_cast<unsigned>(*v);
            jobsSet = true;
        } else if (want("--daemon")) {
            daemonSocket = argv[++i];
        } else if (want("--accesses")) {
            const auto v = parseCount(argv[++i]);
            if (!v || *v == 0)
                return usage("run: --accesses needs a positive count");
            opt.accesses = *v;
        } else if (want("--cores")) {
            const auto v = parseCores(argv[++i]);
            if (!v)
                return usage("run: --cores must be a valid core count");
            opt.cores = *v;
        } else if (want("--out")) {
            opt.outDir = argv[++i];
        } else if (want("--snapshot-every")) {
            const auto v = parseCount(argv[++i]);
            if (!v || *v == 0) {
                return usage(
                    "run: --snapshot-every needs a positive count");
            }
            opt.snapshotEvery = *v;
        } else if (want("--plant-fault")) {
            const auto hook = parseFault(argv[++i]);
            if (!hook)
                return usage("run: --plant-fault needs I,B,S");
            opt.fault = *hook;
        } else if (!std::strcmp(argv[i], "--quick")) {
            opt.quick = true;
        } else {
            return usage("run: unknown or incomplete option");
        }
    }

    // Validate the fault's variant index here (the library fatal()s on
    // a bad instance; the CLI owes a usage error instead).
    if (opt.fault.enabled) {
        const std::size_t variants =
            (opt.quick ? Differ::quickVariants(opt.cores)
                       : Differ::standardVariants(opt.cores))
                .size();
        if (opt.fault.instance >= variants)
            return usage("run: --plant-fault variant index out of range");
    }

    if (!daemonSocket.empty()) {
        if (minutesSet)
            return usage("run: --minutes is not available with "
                         "--daemon (submit a seed count)");
        if (jobsSet)
            return usage("run: --jobs is not available with --daemon "
                         "(the daemon owns its parallelism)");
        return cmdDaemonRun(opt, daemonSocket);
    }

    // J bounds the whole process: a lone seed's Differ (and the
    // shrinker's) use jobs(), and Differs nested in a wave run inline.
    if (jobsSet)
        setJobs(opt.jobs);
    const FuzzBatchResult res = runFuzzBatch(opt);
    return res.exitCode;
}

int
cmdShrink(int argc, char **argv)
{
    std::string in, out;
    bool quick = false;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (in.empty() && argv[i][0] != '-') {
            in = argv[i];
        } else {
            return usage("shrink: unknown or incomplete option");
        }
    }
    if (in.empty())
        return usage("shrink needs <trace>");
    if (out.empty())
        out = in + ".min.trc";

    TraceReader trace(in);
    if (!trace.ok()) {
        std::fprintf(stderr, "fuzz_tool: %s\n", trace.error().c_str());
        return kExitLoad;
    }
    const Differ differ(quick ? Differ::quickVariants(trace.cores())
                              : Differ::standardVariants(trace.cores()));
    const ShrinkResult res = shrinkTrace(differ, trace.records());
    if (!res.shrunk()) {
        std::printf("trace does not diverge; nothing to shrink\n");
        return kExitOk;
    }
    if (!writeTrace(out, differ.cores(), res.trace))
        return kExitRuntime;
    printDivergence(in, res.divergence);
    std::printf("shrunk %zu -> %zu records (%" PRIu64
                " candidates%s): %s\n",
                res.originalSize, res.trace.size(), res.candidatesTried,
                res.hitCandidateCap ? ", hit cap" : "", out.c_str());
    return kExitCheckFailed;
}

/** "replayed X of Y records (Z% of the stream)" — the fast-forward
 *  payoff line the CI demo greps for. */
void
printTail(std::uint64_t from, std::uint64_t ran, std::size_t total)
{
    const double pct =
        total ? 100.0 * static_cast<double>(ran) /
                    static_cast<double>(total)
              : 0.0;
    std::printf("fast-forward: restored to access %" PRIu64
                ", replayed %" PRIu64 " of %zu records (%.1f%%)\n",
                from, ran, total, pct);
}

int
cmdReplay(int argc, char **argv)
{
    std::string in, restorePath, savePath;
    bool quick = false;
    std::uint64_t every = 0;
    FaultHook fault;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--plant-fault") &&
                   i + 1 < argc) {
            const auto hook = parseFault(argv[++i]);
            if (!hook)
                return usage("replay: --plant-fault needs I,B,S");
            fault = *hook;
        } else if (!std::strcmp(argv[i], "--snapshot-every") &&
                   i + 1 < argc) {
            const auto v = parseCount(argv[++i]);
            if (!v || *v == 0) {
                return usage(
                    "replay: --snapshot-every needs a positive count");
            }
            every = *v;
        } else if (!std::strcmp(argv[i], "--save-checkpoint") &&
                   i + 1 < argc) {
            savePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--restore") && i + 1 < argc) {
            restorePath = argv[++i];
        } else if (in.empty() && argv[i][0] != '-') {
            in = argv[i];
        } else {
            return usage("replay: unknown or incomplete option");
        }
    }
    if (in.empty())
        return usage("replay needs <trace>");

    TraceReader trace(in);
    if (!trace.ok()) {
        std::fprintf(stderr, "fuzz_tool: %s\n", trace.error().c_str());
        return kExitLoad;
    }
    DifferOptions dopt;
    dopt.snapshotCadence = every;
    Differ differ(quick ? Differ::quickVariants(trace.cores())
                        : Differ::standardVariants(trace.cores()),
                  dopt);
    if (fault.enabled) {
        if (fault.instance >= differ.variants().size())
            return usage("replay: --plant-fault variant index out of range");
        differ.setFaultHook(fault);
    }

    // Tail-only mode: skip straight to a saved checkpoint.
    if (!restorePath.empty()) {
        DifferCheckpoint ckpt;
        std::string err;
        if (!ckpt.load(restorePath, &err)) {
            std::fprintf(stderr, "cannot restore %s: %s\n",
                         restorePath.c_str(), err.c_str());
            return kExitLoad;
        }
        const DifferResult res = differ.resume(ckpt, trace.records());
        printTail(ckpt.accessIndex, res.accesses - ckpt.accessIndex,
                  trace.records().size());
        if (!res.ok()) {
            printDivergence(in, res.divergence);
            return kExitCheckFailed;
        }
        std::printf("no divergence\n");
        return kExitOk;
    }

    const DifferResult res = differ.run(trace.records());
    std::printf("%zu records x %zu variants: %" PRIu64 " sweeps\n",
                trace.records().size(), differ.variants().size(),
                res.sweeps);
    if (!res.ok()) {
        printDivergence(in, res.divergence);
        if (res.checkpoint.valid) {
            // Demonstrate the fast-forward: restore the last
            // pre-divergence checkpoint and re-run only the tail; the
            // verdict must be identical.
            const DifferResult tail =
                differ.resume(res.checkpoint, trace.records());
            printTail(res.checkpoint.accessIndex,
                      tail.accesses - res.checkpoint.accessIndex,
                      trace.records().size());
            if (tail.ok() ||
                tail.divergence.accessIndex !=
                    res.divergence.accessIndex ||
                tail.divergence.rule != res.divergence.rule) {
                std::fprintf(stderr,
                             "fuzz_tool: fast-forwarded replay did not "
                             "reproduce the divergence\n");
                return kExitRuntime;
            }
            if (!savePath.empty()) {
                std::string err;
                if (!res.checkpoint.save(savePath, &err)) {
                    std::fprintf(stderr, "fuzz_tool: %s\n", err.c_str());
                    return kExitRuntime;
                }
                std::printf("checkpoint saved: %s\n", savePath.c_str());
            }
        }
        return kExitCheckFailed;
    }
    std::printf("no divergence\n");
    return kExitOk;
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 6)
        return usage("gen needs <seed> <cores> <accesses> <file>");
    const auto seed = parseCount(argv[2]);
    const auto cores = parseCores(argv[3]);
    const auto acc = parseCount(argv[4]);
    if (!seed)
        return usage("gen: <seed> must be a number");
    if (!cores)
        return usage("gen: <cores> must be a valid core count");
    if (!acc || *acc == 0)
        return usage("gen: <accesses> must be a positive count");
    const auto stream = fuzzStream(*seed, *cores, *acc);
    if (!writeTrace(argv[5], *cores, stream))
        return kExitRuntime;
    std::printf("wrote %zu records to %s\n", stream.size(), argv[5]);
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
            std::fputs(kUsage, stdout);
            return kExitOk;
        }
    }
    if (!std::strcmp(argv[1], "help")) {
        std::fputs(kUsage, stdout);
        return kExitOk;
    }
    if (!std::strcmp(argv[1], "run"))
        return cmdRun(argc, argv);
    if (!std::strcmp(argv[1], "shrink"))
        return cmdShrink(argc, argv);
    if (!std::strcmp(argv[1], "replay"))
        return cmdReplay(argc, argv);
    if (!std::strcmp(argv[1], "gen"))
        return cmdGen(argc, argv);
    return usage("unknown subcommand");
}
