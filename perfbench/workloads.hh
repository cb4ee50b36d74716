/**
 * @file
 * The three benchmark workloads, built only from the simulator's public
 * entry points: how each one configures the system and its inputs, the
 * simulated-output digest that every run of a workload and seed must
 * reproduce, and the shape guards that fail a run whose workload has
 * stopped loading the layers it was chosen for.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cmp_system.hh"
#include "obs/json.hh"
#include "obs/latency.hh"
#include "obs/sampler.hh"
#include "sim/runner.hh"
#include "verify/differ.hh"
#include "workload/workload.hh"

namespace perfbench
{

using namespace zerodev;

/** One invocation: workload name, input seed and fixed work (accesses
 *  per core for the generator workloads, stream records for the fuzz
 *  workload). */
struct Spec
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t work = 0;
};

constexpr const char *kRateHits = "rate-hits";
constexpr const char *kZdevDirspill = "zdev-dirspill";
constexpr const char *kFuzzLockstep = "fuzz-lockstep";

/** Cores of the fuzz stream (the nightly shards' 4-core cross product). */
constexpr std::uint32_t kFuzzCores = 4;

/** In-memory checkpoint cadence of the fuzz workload (nightly shards). */
constexpr std::uint64_t kFuzzCheckpointEvery = 10000;

/** Times each set-up is repeated in one process; the median is kept. */
constexpr int kSetupRepeats = 11;

bool isKnownWorkload(const std::string &name);
bool isFuzz(const Spec &s);

/** System configuration of a generator workload. */
SystemConfig configOf(const Spec &s);

/** The rate-mode workload driving the generator workloads. */
Workload workloadOf(const Spec &s);

/** The 15 lockstep variants of the fuzz workload. */
std::vector<verify::Variant> fuzzVariants();

/** Differ options of the fuzz workload: default sweep cadences plus the
 *  in-memory checkpoint cadence. */
verify::DifferOptions fuzzOptions();

/** The v2-report observers zdev-dirspill runs with: the latency
 *  profiler plus the interval sampler with the standard probes. */
struct Observers
{
    explicit Observers(const CmpSystem &sys);
    void attachTo(RunConfig &rc);

    obs::IntervalSampler sampler;
    obs::LatencyProfiler latency;
};

/** True when the workload runs with observers attached. */
bool hasObservers(const Spec &s);

using ClassCounts =
    std::array<std::uint64_t,
               static_cast<std::size_t>(AccessClass::NumClasses)>;

/** The simulated outputs a generator run must reproduce exactly, as 16
 *  hex digits: FNV-1a over the completion cycle @p cycles, l2_misses,
 *  DEVs, traffic bytes and the per-class access counts of @p sys. */
std::string digestOf(const CmpSystem &sys, Cycle cycles);

/** Digest of a fuzz run: FNV-1a over the records executed and every
 *  instance's completion time and serialized system image at the final
 *  checkpoint (the images carry every counter, cycles included). */
std::string fuzzDigest(const verify::DifferCheckpoint &cp);

/** Shape guard of a generator workload on its end-of-run system;
 *  returns "" when the workload still does its job, else the reason. */
std::string shapeProblem(const Spec &s, const CmpSystem &sys);

/** Shape guard of the fuzz workload's variant set. */
std::string fuzzShapeProblem(const std::vector<verify::Variant> &v);

/** Sum of a per-socket StatDump counter ("s<k>.<suffix>") over sockets. */
double socketSum(const StatDump &d, std::uint32_t sockets,
                 const std::string &suffix);

/** Seconds elapsed since @p t0 on the steady clock. */
double secondsSince(std::chrono::steady_clock::time_point t0);

/** Median of @p v (which it reorders); 0 for an empty vector. */
double median(std::vector<double> v);

/** Peak resident set of this process in KiB. */
double peakRssKib();

/** Untraced run: end-to-end figures of one repetition, one JSON line. */
void runUntraced(const Spec &s, obs::JsonWriter &out);

/** Traced run: the per-layer ledger (ledger.cc), one JSON line. */
void runTraced(const Spec &s, obs::JsonWriter &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
