/**
 * @file
 * Directory side-channel lab CLI: the measurement end of the leakage
 * observability stack (docs/SIDECHANNEL.md).
 *
 * Runs the attack scenarios of src/attack/ across the standard config
 * cross product (unbounded directory, sparse baselines, every ZeroDEV
 * flavour, multi-socket splits) plus a partitioned-tag sparse variant,
 * estimates per-configuration channel capacity / mutual information /
 * decoder bit-error rate from the (secret, observable) trial pairs, and
 * writes one machine-readable `zerodev-leakage-v1` JSON report. The
 * verdict is the paper's isolation claim, CI-gated:
 *
 *  - every replacement-managed directory must LEAK (capacity >= 0.5
 *    bits/trial — the replacement-induced DEV channel of PAPER.md
 *    Section I-A2): the sparse baselines and the phase-priority rival
 *    backend,
 *  - every ZeroDEV flavour, the partitioned-tag variant and the
 *    directoryless DLS rival backend must NOT (capacity <= 0.05
 *    bits/trial),
 *  - no trial may violate a system invariant (including
 *    eviction-provenance conservation).
 *
 * Everything observable is simulated-time deterministic: the report is a
 * pure function of (--trials, --seed), independent of --jobs and wall
 * clock, so two runs diff clean.
 *
 * Exit codes (aligned with trace_tool/fuzz_tool — docs/OBSERVABILITY.md;
 * 3 is reserved, this tool loads nothing):
 *   0  all expectations met
 *   1  runtime failure, or a sparse baseline failed to leak
 *      (the lab lost its positive control)
 *   2  usage error
 *   4  isolation violation: a supposedly-isolating configuration
 *      leaked, or an invariant was violated
 */

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "attack/scenario.hh"
#include "bench_util.hh"
#include "common/exit_codes.hh"
#include "common/parallel.hh"
#include "obs/json.hh"
#include "obs/leakage.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "verify/differ.hh"

using namespace zerodev;

namespace
{

// The CI-gated thresholds, in bits/trial of channel capacity.
constexpr double kLeakThresholdBits = 0.5;
constexpr double kIsolationEpsilonBits = 0.05;

const char *const kUsage =
    "usage: sidechannel_tool [--trials N] [--seed S] [--jobs J]\n"
    "                        [--out FILE] [--smoke]\n"
    "\n"
    "Runs the directory Prime+Probe and occupancy scenarios across the\n"
    "standard config cross product plus a partitioned-tag sparse\n"
    "variant, and writes a zerodev-leakage-v1 JSON report (default\n"
    "leakage.json). --smoke cuts trials to 24 for CI gates (an explicit\n"
    "--trials wins). The report is deterministic in (--trials, --seed):\n"
    "--jobs only changes wall time.\n"
    "\n"
    "exit codes: 0 ok, 1 runtime failure or sparse baseline failed to\n"
    "            leak, 2 usage error, 4 isolation violation\n";

int
usage(const char *why = nullptr)
{
    if (why)
        std::fprintf(stderr, "sidechannel_tool: %s\n", why);
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

/** One (variant, scenario) cell of the cross product. */
struct Cell
{
    std::string variant;
    SystemConfig cfg;
    attack::ScenarioKind kind = attack::ScenarioKind::DirPrimeProbe;
    bool expectLeak = false;

    attack::ScenarioResult res;
    obs::LeakageEstimate est;
    bool pass = false;
};

/**
 * The lab's configurations: the Differ's standard cross product (the
 * same variants the equivalence fuzzer exercises) plus "Partitioned
 * Tags, Shared Data"-style strict isolation on the 1/8-ratio sparse
 * baseline — the third point of the leakage story: sparse leaks,
 * ZeroDEV removes the channel by construction, way partitioning
 * removes it by isolation (while still paying self-conflict DEVs).
 */
std::vector<verify::Variant>
labVariants()
{
    std::vector<verify::Variant> vars =
        verify::Differ::standardVariants(4);
    SystemConfig cfg;
    for (const verify::Variant &v : vars) {
        if (v.name == "sparse-8th")
            cfg = v.cfg;
    }
    cfg.directory.tagPartitions = 4;
    vars.push_back({"sparse-parttag", cfg});
    return vars;
}

/**
 * Only the replacement-managed directories carry the DEV channel: the
 * sparse baselines and the phase-priority backend (bounded directory,
 * priority-driven victim selection — a different replacement schedule,
 * same channel). Everything else is expected to isolate, including the
 * directoryless DLS backend: its "no directory" claim is measured here,
 * not assumed (the dls-zero-dev invariant merely cross-checks it).
 */
bool
expectsLeak(const std::string &variant)
{
    return variant == "sparse-1x" || variant == "sparse-8th" ||
           variant == "phasepri";
}

void
writeReport(obs::JsonWriter &w, const std::vector<Cell> &cells,
            std::uint64_t trials, std::uint64_t seed)
{
    w.beginObject();
    obs::stampArtifact(w, "zerodev-leakage-v1");
    w.field("figure", "sidechannel");
    w.field("trials", trials);
    w.field("seed", seed);
    w.key("thresholds").beginObject();
    w.field("leakCapacityBits", kLeakThresholdBits);
    w.field("isolateCapacityBits", kIsolationEpsilonBits);
    w.endObject();

    std::uint64_t leaking_baselines = 0, isolation_violations = 0;
    std::uint64_t invariant_violations = 0;
    w.key("entries").beginArray();
    for (const Cell &c : cells) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(
                          obs::configFingerprint(c.cfg)));
        w.beginObject();
        w.field("variant", c.variant);
        w.field("fingerprint", fp);
        w.field("scenario", attack::toString(c.kind));
        w.field("expectLeak", c.expectLeak);
        w.field("capacityBits", c.est.capacityBits);
        w.field("miBits", c.est.miBits);
        w.field("ber", c.est.ber);
        w.field("bins", static_cast<std::uint64_t>(c.est.bins));
        w.field("devInvalidations", c.res.devInvalidations);
        w.field("inclusionInvalidations", c.res.inclusionInvalidations);
        w.key("devByInducingCore").beginArray();
        for (std::uint64_t n : c.res.devByInducer)
            w.value(n);
        w.endArray();
        w.key("inclusionByInducingCore").beginArray();
        for (std::uint64_t n : c.res.inclusionByInducer)
            w.value(n);
        w.endArray();
        w.field("invariantViolations", c.res.invariantViolations);
        w.field("pass", c.pass);
        w.endObject();

        invariant_violations += c.res.invariantViolations;
        if (c.expectLeak && c.pass)
            ++leaking_baselines;
        if (!c.expectLeak && !c.pass)
            ++isolation_violations;
    }
    w.endArray();

    bool all = invariant_violations == 0;
    for (const Cell &c : cells)
        all = all && c.pass;
    w.key("verdict").beginObject();
    w.field("pass", all);
    w.field("leakingBaselines", leaking_baselines);
    w.field("isolationViolations", isolation_violations);
    w.field("invariantViolations", invariant_violations);
    w.endObject();
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t trials = 64, seed = 1;
    bool trials_explicit = false;
    bool smoke = false;
    std::string out = "leakage.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--trials") {
            const auto v = parseCount(next());
            if (!v || *v == 0)
                return usage("--trials wants a positive count");
            trials = *v;
            trials_explicit = true;
        } else if (arg == "--seed") {
            const auto v = parseCount(next());
            if (!v)
                return usage("--seed wants a number");
            seed = *v;
        } else if (arg == "--jobs") {
            const auto v = parseCount(next());
            if (!v || *v == 0)
                return usage("--jobs wants a positive count");
            setJobs(static_cast<unsigned>(*v));
        } else if (arg == "--out") {
            const char *v = next();
            if (!v)
                return usage("--out wants a path");
            out = v;
        } else if (arg == "--smoke") {
            smoke = true;
        } else {
            return usage(("unknown argument: " + arg).c_str());
        }
    }
    if (smoke && !trials_explicit)
        trials = 24;

    bench::banner("sidechannel",
                  "directory side-channel leakage lab "
                  "(docs/SIDECHANNEL.md)");

    // The full cross product: every lab variant under both scenarios.
    const std::vector<verify::Variant> vars = labVariants();
    std::vector<Cell> cells;
    for (const verify::Variant &v : vars) {
        for (const auto kind : {attack::ScenarioKind::DirPrimeProbe,
                                attack::ScenarioKind::DirOccupancy}) {
            Cell c;
            c.variant = v.name;
            c.cfg = v.cfg;
            c.kind = kind;
            c.expectLeak = expectsLeak(v.name);
            cells.push_back(std::move(c));
        }
    }

    // One sweep task per cell; trials heartbeat into live telemetry.
    // Cells are written in place by index, so the report below comes
    // out in task order whatever --jobs is.
    std::vector<bench::TaskJob> tasks;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell &c = cells[i];
        bench::TaskJob t;
        t.name = c.variant + "_" + attack::toString(c.kind);
        t.cfg = c.cfg;
        t.units = trials;
        t.run = [&c, trials, seed](obs::TelemetryJob *tj) {
            attack::ScenarioOptions opt;
            opt.kind = c.kind;
            opt.trials = trials;
            opt.seed = seed;
            c.res = attack::runScenario(
                c.cfg, opt, [tj](std::uint64_t done) {
                    if (tj)
                        tj->progress(done, done);
                });
            c.est = obs::estimateLeakage(c.res.secrets,
                                         c.res.observables);
            const bool leaks =
                c.est.capacityBits >= kLeakThresholdBits;
            const bool isolates =
                c.est.capacityBits <= kIsolationEpsilonBits;
            c.pass = (c.expectLeak ? leaks : isolates) &&
                     c.res.invariantViolations == 0;
        };
        tasks.push_back(std::move(t));
    }
    bench::runSweep(tasks);

    std::printf("%-16s %-16s %9s %7s %6s %5s %8s %6s\n", "variant",
                "scenario", "capacity", "mi", "ber", "bins", "DEVs",
                "pass");
    bool sparse_failed = false, isolation_failed = false;
    for (const Cell &c : cells) {
        std::printf("%-16s %-16s %9.3f %7.3f %6.3f %5u %8" PRIu64
                    " %6s\n",
                    c.variant.c_str(), attack::toString(c.kind),
                    c.est.capacityBits, c.est.miBits, c.est.ber,
                    c.est.bins, c.res.devInvalidations,
                    c.pass ? "ok" : "FAIL");
        if (!c.pass) {
            if (c.expectLeak && c.res.invariantViolations == 0)
                sparse_failed = true;
            else
                isolation_failed = true;
        }
    }

    obs::JsonWriter w;
    writeReport(w, cells, trials, seed);
    if (!obs::writeTextFile(out, w.str() + "\n")) {
        std::fprintf(stderr, "sidechannel_tool: cannot write %s\n",
                     out.c_str());
        return kExitRuntime;
    }
    std::printf("\nreport: %s\n", out.c_str());

    if (isolation_failed) {
        std::fprintf(stderr,
                     "sidechannel_tool: ISOLATION VIOLATION — a "
                     "non-leaking configuration leaked or violated an "
                     "invariant\n");
        return kExitCheckFailed;
    }
    if (sparse_failed) {
        std::fprintf(stderr,
                     "sidechannel_tool: positive control lost — a "
                     "sparse baseline failed to leak\n");
        return kExitRuntime;
    }
    return kExitOk;
}
