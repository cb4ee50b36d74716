/**
 * @file
 * The traced run: an outside-in per-layer ledger. Nothing inside the
 * simulator is instrumented; every span is taken here, around calls into
 * a layer's public functions:
 *
 *  - workload:   the stream generators: ThreadGenerator::next, timed
 *                per refill of chunked per-core buffers, or fuzzStream;
 *  - core:       CmpSystem::access, sampled at pseudo-random positions
 *                and binned by the service class the call counted
 *                (l1/l2 hits measure the private caches; two/three-hop
 *                and upgrades the directory, LLC banks and mesh; memory
 *                the DRAM model);
 *  - sim:        what run() adds over a bare replay of the same streams
 *                in the same issue order, and the issue loop itself;
 *  - obs:        run() with the v2-report observers minus without;
 *  - verify:     each variant replayed alone, the invariant sweeps and
 *                checkpoints, and the lockstep oracle as the remainder.
 *
 * Every pass that executes the run must reproduce the untraced run's
 * simulated digest exactly.
 */

#include <algorithm>

#include "common/serialize.hh"
#include "core/invariants.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr std::size_t kClasses =
    static_cast<std::size_t>(AccessClass::NumClasses);

/** Mean distance between sampled access() calls. Timing every call
 *  doubles the cost of an L1 hit; one in 32 keeps the sampled replay
 *  within a few percent of a bare one. */
constexpr std::uint32_t kSamplePeriod = 32;

/** Repeats of the cheap end-of-run measurements (median kept). */
constexpr int kRepeats = 3;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Cost of one back-to-back pair of clock reads, subtracted from every
 *  sampled span. */
double
clockOverheadNs()
{
    std::vector<double> d;
    for (int i = 0; i < 2001; ++i) {
        const Clock::time_point a = Clock::now();
        const Clock::time_point b = Clock::now();
        d.push_back(nsBetween(a, b));
    }
    return median(d);
}

/**
 * Sampled access() spans binned by service class. Sample positions
 * follow a fixed-seed xorshift stream with uniform gaps around
 * kSamplePeriod, so they cannot alias with the issue order's periodic
 * structure and repeat exactly from run to run.
 */
class AccessSpans
{
  public:
    AccessSpans() : overheadNs_(clockOverheadNs()) {}

    /** Execute @p call (an access on @p sys), timing it when due. */
    template <typename Call>
    Cycle
    access(const CmpSystem &sys, Call &&call)
    {
        if (--countdown_ != 0)
            return call();
        countdown_ = nextGap();
        const ClassCounts pre = sys.protoStats().classCount;
        const Clock::time_point t0 = Clock::now();
        const Cycle done = call();
        const Clock::time_point t1 = Clock::now();
        const ClassCounts &post = sys.protoStats().classCount;
        for (std::size_t k = 0; k < kClasses; ++k) {
            if (post[k] != pre[k]) {
                ++samples_[k];
                sumNs_[k] += std::max(0.0, nsBetween(t0, t1) - overheadNs_);
                break;
            }
        }
        return done;
    }

    /** Mean sampled ns of class @p k (0 when never sampled). */
    double
    meanNs(std::size_t k) const
    {
        return samples_[k] ? sumNs_[k] / static_cast<double>(samples_[k])
                           : 0.0;
    }

    /** Estimated total access() time of calls with @p counts per class;
     *  a class executed but never sampled is charged the overall mean. */
    double
    totalNs(const ClassCounts &counts) const
    {
        double all_ns = 0.0, all_n = 0.0;
        for (std::size_t k = 0; k < kClasses; ++k) {
            all_ns += sumNs_[k];
            all_n += static_cast<double>(samples_[k]);
        }
        const double fallback = all_n > 0 ? all_ns / all_n : 0.0;
        double total = 0.0;
        for (std::size_t k = 0; k < kClasses; ++k) {
            total += static_cast<double>(counts[k]) *
                     (samples_[k] ? meanNs(k) : fallback);
        }
        return total;
    }

  private:
    std::uint32_t
    nextGap()
    {
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        return 1 + static_cast<std::uint32_t>(rng_ % (2 * kSamplePeriod - 1));
    }

    double overheadNs_;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
    std::uint32_t countdown_ = 1;
    ClassCounts samples_{};
    std::array<double, kClasses> sumNs_{};
};

/**
 * Issue @p cores streams of @p per_core accesses in run()'s order: the
 * core with the earliest ready time goes next, ties to the lowest id.
 * @p step(core, index, ready) executes the run's access number @p index
 * (global issue position), which belongs to @p core, and returns its
 * completion time.
 * Returns the run's completion time.
 */
template <typename Step>
Cycle
issueInOrder(std::uint32_t cores, std::uint64_t per_core, Step &&step)
{
    std::vector<Cycle> ready(cores, 0);
    std::vector<std::uint64_t> issued(cores, 0);
    const std::uint64_t total = per_core * cores;
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint32_t best = 0;
        Cycle best_t = ~0ull;
        for (std::uint32_t c = 0; c < cores; ++c) {
            if (issued[c] < per_core && ready[c] < best_t) {
                best_t = ready[c];
                best = c;
            }
        }
        ++issued[best];
        ready[best] = step(best, i, ready[best]);
    }
    return *std::max_element(ready.begin(), ready.end());
}

/** Median wall time of @p repeats calls of @p fn, in ms. */
template <typename Fn>
double
medianMs(int repeats, Fn &&fn)
{
    std::vector<double> ms;
    for (int i = 0; i < repeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        ms.push_back(secondsSince(t0) * 1e3);
    }
    return median(ms);
}

/** End-of-run measurements of one system. */
struct EndOfRun
{
    double saveMs = 0, restoreMs = 0, kib = 0, invariantsMs = 0,
           reportMs = 0;
    std::string problem;
};

/** Time saveState/restoreState/checkInvariants/report on @p sys, and
 *  check that a restored copy re-serializes to the same bytes and that
 *  the invariants hold. */
EndOfRun
measureEndOfRun(const CmpSystem &sys, int repeats)
{
    EndOfRun e;
    SerialOut saved;
    e.saveMs = medianMs(repeats, [&] {
        saved = SerialOut();
        sys.saveState(saved);
    });
    e.kib = static_cast<double>(saved.size()) / 1024.0;

    std::vector<double> restores;
    for (int i = 0; i < repeats; ++i) {
        CmpSystem copy(sys.config());
        SerialIn in(saved.data());
        const Clock::time_point t0 = Clock::now();
        copy.restoreState(in);
        restores.push_back(secondsSince(t0) * 1e3);
        SerialOut again;
        copy.saveState(again);
        if (!in.ok() || !in.exhausted() || again.data() != saved.data())
            e.problem = "snapshot round trip changed the system image";
    }
    e.restoreMs = median(restores);

    std::vector<Violation> violations;
    e.invariantsMs =
        medianMs(repeats, [&] { violations = checkInvariants(sys); });
    if (!violations.empty() && e.problem.empty()) {
        e.problem = "invariant " + violations.front().rule + ": " +
                    violations.front().detail;
    }
    e.reportMs = medianMs(repeats, [&] { (void)sys.report(); });
    return e;
}

/** Layer counts from StatDump, summed over systems. */
struct Counts
{
    ClassCounts classCount{};
    double accesses = 0, l2Misses = 0, devs = 0, inclusion = 0,
           refusals = 0, fuseOps = 0, spillAllocs = 0, deLines = 0,
           meshTraversals = 0, trafficBytes = 0, dramReads = 0;

    void
    add(const CmpSystem &sys)
    {
        const StatDump d = sys.report();
        const std::uint32_t sk = sys.config().sockets;
        for (std::size_t k = 0; k < kClasses; ++k)
            classCount[k] += sys.protoStats().classCount[k];
        accesses += d.get("accesses");
        l2Misses += d.get("l2_misses");
        devs += d.get("dev_invalidations");
        inclusion += d.get("inclusion_invalidations");
        refusals += socketSum(d, sk, "dir.refusals");
        fuseOps += socketSum(d, sk, "llc.fuse_ops");
        spillAllocs += socketSum(d, sk, "llc.spill_allocs");
        deLines += socketSum(d, sk, "llc.de_lines");
        meshTraversals += socketSum(d, sk, "mesh.traversals");
        trafficBytes += d.get("traffic_bytes");
        dramReads += d.get("dram.reads");
    }
};

/** Emit the access-span, class and count metrics shared by every
 *  workload. */
void
emitCoreLayers(obs::JsonWriter &out, const AccessSpans &spans,
               const Counts &n)
{
    const double total_ns = spans.totalNs(n.classCount);
    for (std::size_t k = 0; k < kClasses; ++k) {
        const std::string cls = toString(static_cast<AccessClass>(k));
        const double count = static_cast<double>(n.classCount[k]);
        out.field("core.access_ns." + cls, spans.meanNs(k));
        out.field("core.access_share." + cls,
                  total_ns > 0 ? count * spans.meanNs(k) / total_ns : 0.0);
        out.field("core.class_frac." + cls,
                  n.accesses > 0 ? count / n.accesses : 0.0);
    }
    const double pk = n.accesses > 0 ? 1000.0 / n.accesses : 0.0;
    out.field("core.l2_misses_pkacc", n.l2Misses * pk)
        .field("core.dev_invalidations_pkacc", n.devs * pk)
        .field("core.inclusion_invalidations_pkacc", n.inclusion * pk)
        .field("directory.refusals_pkacc", n.refusals * pk)
        .field("coherence.llc_fuse_ops_pkacc", n.fuseOps * pk)
        .field("coherence.llc_spill_allocs_pkacc", n.spillAllocs * pk)
        .field("coherence.llc_de_lines", n.deLines)
        .field("interconnect.mesh_traversals_pkacc", n.meshTraversals * pk)
        .field("interconnect.traffic_bytes_per_access",
               n.accesses > 0 ? n.trafficBytes / n.accesses : 0.0)
        .field("mem.dram_reads_pkacc", n.dramReads * pk);
}

void
emitEndOfRun(obs::JsonWriter &out, const EndOfRun &e)
{
    out.field("core.invariants_ms", e.invariantsMs)
        .field("core.report_ms", e.reportMs)
        .field("sim.snapshot_save_ms", e.saveMs)
        .field("sim.snapshot_restore_ms", e.restoreMs)
        .field("sim.snapshot_kib", e.kib);
}

/**
 * The workload's generators behind per-core buffers refilled a chunk at
 * a time. Each refill is a span of the workload layer; chunks keep the
 * buffered streams cache-resident, so replaying from them costs about
 * what run()'s inline next() calls cost.
 */
class ChunkedStreams
{
  public:
    ChunkedStreams(const Workload &w, std::uint32_t cores,
                   std::uint64_t per_core)
        : bufs_(cores, std::vector<MemAccess>(kChunk)),
          pos_(cores, kChunk), left_(cores, per_core)
    {
        for (std::uint32_t c = 0; c < cores; ++c)
            gens_.push_back(w.makeGenerator(c));
    }

    const MemAccess &
    next(std::uint32_t c)
    {
        if (pos_[c] == bufs_[c].size())
            refill(c);
        return bufs_[c][pos_[c]++];
    }

    /** Seconds spent in the generators so far. */
    double genSeconds() const { return genS_; }

  private:
    static constexpr std::size_t kChunk = 1024;

    void
    refill(std::uint32_t c)
    {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(kChunk,
                                                             left_[c]));
        bufs_[c].resize(n);
        left_[c] -= n;
        const Clock::time_point t0 = Clock::now();
        for (MemAccess &a : bufs_[c])
            a = gens_[c].next();
        genS_ += secondsSince(t0);
        pos_[c] = 0;
    }

    std::vector<ThreadGenerator> gens_;
    std::vector<std::vector<MemAccess>> bufs_;
    std::vector<std::size_t> pos_;
    std::vector<std::uint64_t> left_;
    double genS_ = 0;
};

void
traceGenerator(const Spec &s, obs::JsonWriter &out)
{
    const SystemConfig cfg = configOf(s);
    const Workload w = workloadOf(s);
    const std::uint32_t cores =
        std::min(cfg.sockets * cfg.coresPerSocket, w.threadCount());
    const double n = static_cast<double>(cores * s.work);
    std::string problem;
    auto fail = [&](const std::string &why) {
        if (problem.empty())
            problem = why;
    };

    const double construct_ms =
        medianMs(kSetupRepeats, [&] { CmpSystem sys(cfg); });

    // The untraced run as the workload defines it, and (when it has
    // observers) once more detached.
    auto untraced = [&](bool observed, std::string *digest) {
        CmpSystem sys(cfg);
        RunConfig rc;
        rc.accessesPerCore = s.work;
        std::unique_ptr<Observers> observers;
        if (observed) {
            observers = std::make_unique<Observers>(sys);
            observers->attachTo(rc);
        }
        const Clock::time_point t0 = Clock::now();
        const RunResult r = run(sys, w, rc);
        const double wall = secondsSince(t0);
        if (digest)
            *digest = digestOf(sys, r.cycles);
        return wall;
    };
    std::string digest;
    const double wall_u = untraced(hasObservers(s), &digest);
    const double wall_detached =
        hasObservers(s) ? untraced(false, nullptr) : wall_u;

    // The traced pass: run()'s work from outside, generator refills and
    // sampled access() calls as spans, observers attached as in the
    // untraced run (the sampler ticked as run() ticks it).
    AccessSpans spans;
    Counts counts;
    EndOfRun end;
    double wall_t = 0, t_gen = 0;
    {
        CmpSystem sys(cfg);
        ChunkedStreams streams(w, cores, s.work);
        std::unique_ptr<Observers> observers;
        if (hasObservers(s)) {
            observers = std::make_unique<Observers>(sys);
            sys.attachLatencyProfiler(&observers->latency);
        }
        Cycle horizon = 0;
        const Clock::time_point t0 = Clock::now();
        const Cycle cycles = issueInOrder(
            cores, s.work,
            [&](std::uint32_t c, std::uint64_t, Cycle ready) {
                const MemAccess &a = streams.next(c);
                const Cycle done = spans.access(sys, [&] {
                    return sys.access(c, a.type, a.block, ready + a.gap);
                });
                if (observers) {
                    horizon = std::max(horizon, done);
                    observers->sampler.tick(horizon);
                }
                return done;
            });
        if (observers)
            observers->sampler.finish(cycles);
        wall_t = secondsSince(t0);
        t_gen = streams.genSeconds();
        sys.attachLatencyProfiler(nullptr);
        if (digestOf(sys, cycles) != digest)
            fail("traced replay digest differs from the untraced run");
        counts.add(sys);
        end = measureEndOfRun(sys, kRepeats);
        fail(end.problem);
    }

    // Reference pass: the same replay bare (no spans, no observers),
    // keeping each access's issue-to-completion delta for the dry pass.
    std::vector<std::uint32_t> delta(static_cast<std::size_t>(n));
    double t_bare = 0;
    Cycle bare_cycles = 0;
    {
        CmpSystem sys(cfg);
        ChunkedStreams streams(w, cores, s.work);
        const Clock::time_point t0 = Clock::now();
        bare_cycles = issueInOrder(
            cores, s.work, [&](std::uint32_t c, std::uint64_t i, Cycle ready) {
                const MemAccess &a = streams.next(c);
                const Cycle done =
                    sys.access(c, a.type, a.block, ready + a.gap);
                delta[i] = static_cast<std::uint32_t>(done - ready);
                return done;
            });
        t_bare = secondsSince(t0);
        if (digestOf(sys, bare_cycles) != digest)
            fail("bare replay digest differs from the untraced run");
    }

    // Reference pass: the issue loop alone, completion times replayed
    // from the deltas instead of simulated.
    const Clock::time_point t0 = Clock::now();
    const Cycle dry_cycles = issueInOrder(
        cores, s.work, [&](std::uint32_t, std::uint64_t i, Cycle ready) {
            return ready + delta[i];
        });
    const double t_dry = secondsSince(t0);
    if (dry_cycles != bare_cycles)
        fail("dry issue loop completed at a different cycle");

    const double access_s = spans.totalNs(counts.classCount) * 1e-9;
    out.field("digest", digest)
        .field("problem", problem)
        .field("untraced_wall_s", wall_u)
        .field("traced_wall_s", wall_t)
        .field("trace_overhead", wall_t / wall_u)
        .field("sim.layer_coverage", (t_gen + access_s + t_dry) / wall_t)
        .field("workload.gen_ns_per_access", t_gen / n * 1e9)
        .field("sim.runner_ns_per_access",
               (wall_detached - t_bare) / n * 1e9)
        .field("sim.issue_loop_ns_per_access", t_dry / n * 1e9)
        .field("core.construct_ms", construct_ms);
    if (hasObservers(s)) {
        out.field("obs.observers_ns_per_access",
                  (wall_u - wall_detached) / n * 1e9);
    }
    emitEndOfRun(out, end);
    emitCoreLayers(out, spans, counts);
}

void
traceFuzz(const Spec &s, obs::JsonWriter &out)
{
    const std::vector<verify::Variant> variants = fuzzVariants();
    const verify::DifferOptions opt = fuzzOptions();
    const double records = static_cast<double>(s.work);
    std::string problem = fuzzShapeProblem(variants);
    auto fail = [&](const std::string &why) {
        if (problem.empty())
            problem = why;
    };

    Clock::time_point t0 = Clock::now();
    const std::vector<TraceRecord> stream =
        verify::fuzzStream(s.seed, kFuzzCores, s.work);
    const double t_gen = secondsSince(t0);

    const double construct_ms = medianMs(kSetupRepeats, [&] {
        std::vector<std::unique_ptr<CmpSystem>> systems;
        for (const verify::Variant &v : variants)
            systems.push_back(std::make_unique<CmpSystem>(v.cfg));
    });

    const verify::Differ differ(variants, opt);
    t0 = Clock::now();
    const verify::DifferResult r = differ.run(stream);
    const double wall_u = secondsSince(t0);
    if (!r.ok()) {
        fail("divergence: " + r.divergence.rule + " in " +
             r.divergence.instance);
    } else if (!r.checkpoint.valid || r.checkpoint.accessIndex != s.work) {
        fail("stream not completed to a final checkpoint");
    }
    const std::string digest = fuzzDigest(r.checkpoint);

    // The traced pass: each variant alone under the Differ's time rule,
    // with the invariant sweeps and checkpoints at the Differ's cadences
    // as spans of their own. (The sweeps must be mirrored: they are not
    // state-neutral on every variant, so skipping them changes the
    // serialized images.) Core-state comparisons and the value oracle
    // stay in the lockstep remainder.
    AccessSpans spans;
    Counts counts;
    verify::DifferCheckpoint replayed;
    replayed.accessIndex = s.work;
    double t_construct = 0, t_access = 0, t_inv = 0, t_save = 0;
    std::uint64_t n_inv = 0, n_save = 0;
    std::vector<std::unique_ptr<CmpSystem>> ends;
    t0 = Clock::now();
    for (const verify::Variant &v : variants) {
        Clock::time_point t = Clock::now();
        auto sys = std::make_unique<CmpSystem>(v.cfg);
        t_construct += secondsSince(t);
        auto sweep = [&] {
            const Clock::time_point ts = Clock::now();
            const std::vector<Violation> bad = checkInvariants(*sys);
            t_inv += secondsSince(ts);
            ++n_inv;
            if (!bad.empty())
                fail(v.name + ": invariant " + bad.front().rule);
        };
        verify::DifferCheckpoint::InstanceState image;
        Cycle now = 0;
        double t_sweeps = 0;
        t = Clock::now();
        for (std::uint64_t done = 1; done <= s.work; ++done) {
            const TraceRecord &rec = stream[done - 1];
            now = spans.access(*sys, [&] {
                return sys->access(rec.core, rec.access.type,
                                   rec.access.block, now + rec.access.gap);
            });
            if (done % opt.invariantCadence == 0 ||
                done % kFuzzCheckpointEvery == 0) {
                const double before = t_inv + t_save;
                if (done % opt.invariantCadence == 0)
                    sweep();
                if (done % kFuzzCheckpointEvery == 0) {
                    const Clock::time_point ts = Clock::now();
                    SerialOut o;
                    sys->saveState(o);
                    t_save += secondsSince(ts);
                    ++n_save;
                    image.system = o.data();
                    image.now = now;
                }
                t_sweeps += t_inv + t_save - before;
            }
        }
        const double t_v = secondsSince(t) - t_sweeps;
        t_access += t_v;
        sweep(); // the end-of-stream sweep
        out.field("verify.variant_ns_per_access." + v.name,
                  t_v / records * 1e9);
        replayed.instances.push_back(std::move(image));
        ends.push_back(std::move(sys));
    }
    const double wall_t = secondsSince(t0);
    if (fuzzDigest(replayed) != digest)
        fail("variant replays differ from the lockstep run");

    // One Differ checkpoint (all instances) saved and restored, and the
    // per-call costs of report().
    EndOfRun per_call;
    for (const std::unique_ptr<CmpSystem> &sys : ends) {
        counts.add(*sys);
        const EndOfRun e = measureEndOfRun(*sys, 1);
        fail(e.problem);
        per_call.restoreMs += e.restoreMs;
        per_call.kib += e.kib;
        per_call.reportMs += e.reportMs / static_cast<double>(ends.size());
    }
    per_call.saveMs = n_save ? t_save * 1e3 / n_save * ends.size() : 0;
    per_call.invariantsMs = n_inv ? t_inv * 1e3 / n_inv : 0;

    out.field("digest", digest)
        .field("problem", problem)
        .field("untraced_wall_s", wall_u)
        .field("traced_wall_s", wall_t)
        .field("trace_overhead", wall_t / wall_u)
        .field("sim.layer_coverage",
               (t_construct + t_access + t_inv + t_save) / wall_t)
        .field("workload.gen_ns_per_access", t_gen / records * 1e9)
        .field("core.construct_ms", construct_ms)
        .field("verify.oracle_ns_per_record",
               (wall_u - construct_ms * 1e-3 - t_access - t_inv - t_save) /
                   records * 1e9)
        .field("verify.sweeps", static_cast<double>(r.sweeps));
    emitEndOfRun(out, per_call);
    emitCoreLayers(out, spans, counts);
}

} // namespace

void
runTraced(const Spec &s, obs::JsonWriter &out)
{
    if (isFuzz(s))
        traceFuzz(s, out);
    else
        traceGenerator(s, out);
}

} // namespace perfbench
