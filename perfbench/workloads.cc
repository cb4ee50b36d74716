#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "common/serialize.hh"
#include "obs/probes.hh"
#include "workload/app_profiles.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Rate-mode copies: one per core of the eight-core preset. */
constexpr std::uint32_t kCopies = 8;

/** rate-hits must stay this L1-hit dominated to bypass the uncore. */
constexpr double kMinL1HitShare = 0.99;

class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(const std::vector<std::uint8_t> &bytes)
    {
        add(bytes.size());
        for (std::uint8_t b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace

bool
isKnownWorkload(const std::string &name)
{
    return name == kRateHits || name == kZdevDirspill ||
           name == kFuzzLockstep;
}

bool
isFuzz(const Spec &s)
{
    return s.workload == kFuzzLockstep;
}

bool
hasObservers(const Spec &s)
{
    return s.workload == kZdevDirspill;
}

SystemConfig
configOf(const Spec &s)
{
    SystemConfig cfg = makeEightCoreConfig();
    if (s.workload == kZdevDirspill) {
        // FPSS over a 1/8 sparse directory with replacement disabled:
        // the directory refuses new entries constantly, so fuse, spill
        // and park-in-LLC flows carry the run.
        applyZeroDev(cfg, 0.125);
    }
    return cfg;
}

Workload
workloadOf(const Spec &s)
{
    // exchange2 has a tiny footprint (L1-resident); xalancbmk is the
    // paper's directory-footprint outlier.
    const char *app = s.workload == kRateHits ? "exchange2" : "xalancbmk";
    return Workload::rate(profileByName(app), kCopies, s.seed);
}

std::vector<verify::Variant>
fuzzVariants()
{
    return verify::Differ::standardVariants(kFuzzCores);
}

verify::DifferOptions
fuzzOptions()
{
    verify::DifferOptions opt;
    opt.snapshotCadence = kFuzzCheckpointEvery;
    return opt;
}

Observers::Observers(const CmpSystem &sys) : sampler(10000)
{
    obs::registerSystemProbes(sampler, sys);
}

void
Observers::attachTo(RunConfig &rc)
{
    rc.sampler = &sampler;
    rc.latency = &latency;
}

std::string
digestOf(const CmpSystem &sys, Cycle cycles)
{
    const ProtocolStats &p = sys.protoStats();
    Fnv f;
    f.add(cycles);
    f.add(p.l2Misses);
    f.add(p.devInvalidations);
    f.add(sys.totalTrafficBytes());
    for (std::uint64_t c : p.classCount)
        f.add(c);
    return f.hex();
}

std::string
fuzzDigest(const verify::DifferCheckpoint &cp)
{
    Fnv f;
    f.add(cp.accessIndex);
    for (const verify::DifferCheckpoint::InstanceState &st : cp.instances) {
        f.add(st.now);
        f.add(st.system);
    }
    return f.hex();
}

double
socketSum(const StatDump &d, std::uint32_t sockets,
          const std::string &suffix)
{
    double sum = 0.0;
    for (std::uint32_t s = 0; s < sockets; ++s)
        sum += d.get("s" + std::to_string(s) + "." + suffix);
    return sum;
}

std::string
shapeProblem(const Spec &s, const CmpSystem &sys)
{
    const ProtocolStats &p = sys.protoStats();
    if (p.accesses == 0)
        return "no accesses executed";
    if (s.workload == kRateHits) {
        const double l1 =
            static_cast<double>(
                p.classCount[static_cast<std::size_t>(AccessClass::L1Hit)]) /
            static_cast<double>(p.accesses);
        if (l1 < kMinL1HitShare)
            return "L1-hit share " + std::to_string(l1) + " below 0.99";
        return "";
    }
    const StatDump d = sys.report();
    const std::uint32_t sockets = sys.config().sockets;
    if (socketSum(d, sockets, "dir.refusals") == 0)
        return "no sparse-directory refusals";
    if (socketSum(d, sockets, "llc.fuse_ops") == 0)
        return "no LLC fuse ops";
    if (p.devInvalidations != 0)
        return std::to_string(p.devInvalidations) + " DEVs under ZeroDEV";
    return "";
}

std::string
fuzzShapeProblem(const std::vector<verify::Variant> &v)
{
    // The standard cross product: both baselines, every ZeroDEV flavour,
    // the 2-socket splits (socket directory) and both rival backends.
    static const char *const kExpected[] = {
        "unbounded",      "sparse-1x",      "sparse-8th",
        "zdev-spillall",  "zdev-fpss",      "zdev-fpss-splru",
        "zdev-fuseall",   "zdev-nodir",     "zdev-fpss-incl",
        "zdev-fpss-epd",  "unbounded-2s",   "zdev-fpss-2s",
        "zdev-fuseall-2s", "dls",           "phasepri"};
    for (const char *name : kExpected) {
        const bool present =
            std::any_of(v.begin(), v.end(), [&](const verify::Variant &x) {
                return x.name == name;
            });
        if (!present)
            return std::string("variant ") + name + " missing";
    }
    return "";
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssKib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss); // KiB on Linux
}

namespace
{

/** Set-up of the fuzz workload: the stream plus all 15 instances (the
 *  construction Differ::run repeats internally before its first
 *  access). */
double
fuzzSetupSeconds(const Spec &s, const std::vector<verify::Variant> &variants,
                 std::vector<TraceRecord> &stream)
{
    const Clock::time_point t0 = Clock::now();
    stream = verify::fuzzStream(s.seed, kFuzzCores, s.work);
    std::vector<std::unique_ptr<CmpSystem>> systems;
    for (const verify::Variant &v : variants)
        systems.push_back(std::make_unique<CmpSystem>(v.cfg));
    return secondsSince(t0);
}

void
runFuzz(const Spec &s, obs::JsonWriter &out)
{
    const std::vector<verify::Variant> variants = fuzzVariants();
    std::vector<TraceRecord> stream;
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i)
        setups.push_back(fuzzSetupSeconds(s, variants, stream));

    const verify::Differ differ(variants, fuzzOptions());
    const Clock::time_point t0 = Clock::now();
    const verify::DifferResult r = differ.run(stream);
    const double wall = secondsSince(t0);

    std::string problem = fuzzShapeProblem(variants);
    if (!r.ok()) {
        problem = "divergence: " + r.divergence.rule + " in " +
                  r.divergence.instance + ": " + r.divergence.detail;
    } else if (r.accesses != s.work || !r.checkpoint.valid ||
               r.checkpoint.accessIndex != s.work) {
        problem = "stream not completed to a final checkpoint";
    }
    out.field("setup_s", median(setups))
        .field("wall_s", wall)
        .field("accesses", r.accesses * variants.size())
        .field("records", r.accesses)
        .field("variants", static_cast<std::uint64_t>(variants.size()))
        .field("sweeps", r.sweeps)
        .field("digest", fuzzDigest(r.checkpoint))
        .field("problem", problem);
}

void
runGenerator(const Spec &s, obs::JsonWriter &out)
{
    const SystemConfig cfg = configOf(s);
    std::unique_ptr<CmpSystem> sys;
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        sys.reset();
        const Clock::time_point t0 = Clock::now();
        sys = std::make_unique<CmpSystem>(cfg);
        const Workload w = workloadOf(s);
        std::vector<ThreadGenerator> gens;
        for (std::uint32_t c = 0; c < w.threadCount(); ++c)
            gens.push_back(w.makeGenerator(c));
        setups.push_back(secondsSince(t0));
    }

    const Workload w = workloadOf(s);
    RunConfig rc;
    rc.accessesPerCore = s.work;
    std::unique_ptr<Observers> observers;
    if (hasObservers(s)) {
        observers = std::make_unique<Observers>(*sys);
        observers->attachTo(rc);
    }
    const Clock::time_point t0 = Clock::now();
    const RunResult r = run(*sys, w, rc);
    const double wall = secondsSince(t0);

    out.field("setup_s", median(setups))
        .field("wall_s", wall)
        .field("accesses", r.accesses)
        .field("digest", digestOf(*sys, r.cycles))
        .field("problem", shapeProblem(s, *sys));
}

} // namespace

void
runUntraced(const Spec &s, obs::JsonWriter &out)
{
    if (isFuzz(s))
        runFuzz(s, out);
    else
        runGenerator(s, out);
    out.field("peak_rss_kib", peakRssKib());
}

} // namespace perfbench
