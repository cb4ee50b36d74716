#include "verify/fuzz_batch.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/exit_codes.hh"
#include "common/parallel.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "verify/shrink.hh"
#include "workload/trace.hh"

namespace zerodev::verify
{

namespace
{

struct SeedOutcome
{
    std::uint64_t seed = 0;
    DifferResult result;
};

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

/** The machine-readable batch summary consumed by CI and the service
 *  result documents. */
std::string
fuzzReport(const FuzzBatchOptions &opt, const Differ &differ,
           std::uint64_t seedsRun, double elapsedSec,
           const SeedOutcome *bad, const ShrinkResult *shrunk,
           const std::string &tracePath, const std::string &minPath,
           const std::string &ckptPath)
{
    obs::JsonWriter w;
    w.beginObject();
    obs::stampArtifact(w, "zerodev-fuzz-report-v1");
    w.field("mode", opt.minutes ? "minutes" : "seeds");
    w.field("seeds_run", seedsRun);
    w.field("accesses_per_seed", opt.accesses);
    w.field("cores", static_cast<std::uint64_t>(opt.cores));
    w.field("elapsed_seconds", elapsedSec);
    w.field("fault_planted", opt.fault.enabled);
    w.key("variants").beginArray();
    for (const Variant &v : differ.variants())
        w.value(v.name);
    w.endArray();
    w.key("divergence");
    if (!bad) {
        w.null();
    } else {
        const Divergence &d = bad->result.divergence;
        w.beginObject();
        w.field("seed", bad->seed);
        w.field("rule", d.rule);
        w.field("instance", d.instance);
        w.field("access_index", d.accessIndex);
        w.field("detail", d.detail);
        w.field("trace", tracePath);
        if (!ckptPath.empty()) {
            w.field("checkpoint", ckptPath);
            w.field("checkpoint_access_index",
                    bad->result.checkpoint.accessIndex);
        }
        if (shrunk && shrunk->shrunk()) {
            w.field("shrunk_trace", minPath);
            w.field("original_accesses",
                    static_cast<std::uint64_t>(shrunk->originalSize));
            w.field("shrunk_accesses",
                    static_cast<std::uint64_t>(shrunk->trace.size()));
            w.field("shrink_candidates", shrunk->candidatesTried);
            w.field("shrink_hit_cap", shrunk->hitCandidateCap);
        }
        w.endObject();
    }
    w.endObject();
    return w.str();
}

} // namespace

FuzzBatchResult
runFuzzBatch(const FuzzBatchOptions &opt)
{
    FuzzBatchResult out;

    DifferOptions dopt;
    dopt.snapshotCadence = opt.snapshotEvery;
    Differ differ(opt.quick ? Differ::quickVariants(opt.cores)
                            : Differ::standardVariants(opt.cores),
                  dopt);
    if (opt.fault.enabled)
        differ.setFaultHook(opt.fault);

    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "fuzz: cannot create %s: %s\n",
                     opt.outDir.c_str(), ec.message().c_str());
        out.exitCode = kExitRuntime;
        return out;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        const char *zero = std::getenv("ZERODEV_ZERO_WALL");
        if (zero && *zero)
            return 0.0;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    const auto runSeed = [&](std::uint64_t seed) {
        SeedOutcome so;
        so.seed = seed;
        const auto stream =
            fuzzStream(seed, differ.cores(), opt.accesses);
        obs::TelemetrySink *sink = obs::TelemetrySink::fromEnv();
        if (!sink) {
            so.result = differ.run(stream);
            return so;
        }
        // Live telemetry: a per-seed Differ (same variants, same fault
        // hook) carries a progress hook feeding this seed's job.
        obs::TelemetryJob *tj = sink->beginJob(
            opt.telemetryPrefix + "seed" + std::to_string(seed), "fuzz",
            "", stream.size());
        DifferOptions sopt = differ.options();
        sopt.progress = [tj](std::uint64_t done) {
            tj->progress(done, 0);
        };
        Differ seedDiffer(differ.variants(), sopt);
        seedDiffer.setFaultHook(differ.faultHook());
        so.result = seedDiffer.run(stream);
        obs::JobCompletion c;
        c.workload = "fuzz";
        c.accesses = so.result.accesses;
        c.failed = !so.result.ok();
        if (c.failed)
            c.error = so.result.divergence.rule;
        tj->complete(c);
        return so;
    };

    std::printf("fuzz: %zu variants x %" PRIu64
                " accesses/seed, %u cores%s\n",
                differ.variants().size(), opt.accesses, opt.cores,
                opt.fault.enabled ? " [fault planted]" : "");

    std::vector<SeedOutcome> outcomes;
    std::uint64_t nextSeed = 1;
    while (true) {
        if (opt.stop && opt.stop->load(std::memory_order_relaxed)) {
            out.cancelled = true;
            break;
        }
        // Seed-count mode runs one exact batch; time-budget mode keeps
        // issuing waves of one-per-worker until the budget is spent.
        std::uint64_t wave;
        if (opt.minutes == 0) {
            wave = opt.seeds - (nextSeed - 1);
            if (wave == 0)
                break;
        } else {
            if (elapsed() >= static_cast<double>(opt.minutes) * 60.0) {
                out.timedOut = true;
                break;
            }
            wave = opt.jobs ? opt.jobs : defaultJobs();
        }
        const std::uint64_t base = nextSeed;
        auto batch = parallelMap(
            static_cast<std::size_t>(wave),
            [&](std::size_t i) { return runSeed(base + i); }, opt.jobs);
        nextSeed += wave;
        bool anyBad = false;
        for (auto &o : batch) {
            anyBad = anyBad || !o.result.ok();
            outcomes.push_back(std::move(o));
        }
        if (anyBad)
            break;
    }

    const SeedOutcome *bad = nullptr;
    for (const auto &o : outcomes) {
        if (!o.result.ok() && !bad)
            bad = &o;
    }

    std::string tracePath, minPath, ckptPath;
    ShrinkResult shrunk;
    bool haveShrunk = false;
    if (bad) {
        printDivergence("seed " + std::to_string(bad->seed),
                        bad->result.divergence);
        const auto stream =
            fuzzStream(bad->seed, differ.cores(), opt.accesses);
        tracePath = opt.outDir + "/divergence-seed" +
                    std::to_string(bad->seed) + ".trc";
        if (!writeTrace(tracePath, differ.cores(), stream)) {
            out.exitCode = kExitRuntime;
            return out;
        }
        if (bad->result.checkpoint.valid) {
            // The last lockstep state captured before the divergence:
            // `fuzz_tool replay --restore` fast-forwards to it and
            // re-runs only the tail.
            ckptPath = opt.outDir + "/divergence-seed" +
                       std::to_string(bad->seed) + ".ckpt";
            std::string err;
            if (!bad->result.checkpoint.save(ckptPath, &err)) {
                std::fprintf(stderr, "fuzz: %s\n", err.c_str());
                out.exitCode = kExitRuntime;
                return out;
            }
            std::printf("checkpoint at access %" PRIu64 ": %s\n",
                        bad->result.checkpoint.accessIndex,
                        ckptPath.c_str());
        }
        std::printf("wrote %s (%zu records); shrinking...\n",
                    tracePath.c_str(), stream.size());
        shrunk = shrinkTrace(differ, stream);
        haveShrunk = shrunk.shrunk();
        if (haveShrunk) {
            minPath = opt.outDir + "/divergence-seed" +
                      std::to_string(bad->seed) + ".min.trc";
            if (!writeTrace(minPath, differ.cores(), shrunk.trace)) {
                out.exitCode = kExitRuntime;
                return out;
            }
            std::printf("shrunk %zu -> %zu records (%" PRIu64
                        " candidates%s): %s\n",
                        shrunk.originalSize, shrunk.trace.size(),
                        shrunk.candidatesTried,
                        shrunk.hitCandidateCap ? ", hit cap" : "",
                        minPath.c_str());
        }
    }

    out.seedsRun = outcomes.size();
    out.report = fuzzReport(opt, differ, outcomes.size(), elapsed(), bad,
                            haveShrunk ? &shrunk : nullptr, tracePath,
                            minPath, ckptPath);
    out.reportPath = opt.outDir + "/fuzz-report.json";
    if (!obs::writeTextFile(out.reportPath, out.report + "\n")) {
        out.exitCode = kExitRuntime;
        return out;
    }

    std::printf("%" PRIu64 " seed(s) in %.1fs%s%s -> %s\n", out.seedsRun,
                elapsed(), out.timedOut ? " (time budget reached)" : "",
                out.cancelled ? " (cancelled)" : "",
                out.reportPath.c_str());
    out.divergence = bad != nullptr;
    out.exitCode = bad ? kExitCheckFailed : kExitOk;
    if (!bad)
        std::printf("no divergence\n");
    return out;
}

} // namespace zerodev::verify
