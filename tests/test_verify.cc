/**
 * @file
 * Unit tests of the differential config-equivalence harness and the
 * ddmin trace shrinker: the standard config cross product must agree on
 * adversarial fuzz streams; a synthetic divergence planted through the
 * differ's test-only fault hook must be detected and must shrink to its
 * provably minimal repro (the hook's N stores plus one load).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.hh"
#include "verify/differ.hh"
#include "verify/shrink.hh"

namespace zerodev::verify
{
namespace
{

/** A deterministic stream with a known fault-trigger pattern: storms
 *  over a small pool, with stores to and loads of @p target mixed in. */
std::vector<TraceRecord>
patternStream(BlockAddr target, std::size_t len = 240)
{
    std::vector<TraceRecord> out;
    for (std::size_t i = 0; i < len; ++i) {
        TraceRecord rec;
        rec.core = static_cast<CoreId>(i % 4);
        rec.access.gap = static_cast<std::uint32_t>(i % 7);
        if (i % 40 == 20) {
            rec.access.type = AccessType::Store;
            rec.access.block = target;
        } else if (i % 40 == 39) {
            rec.access.type = AccessType::Load;
            rec.access.block = target;
        } else {
            rec.access.type = i % 5 == 0 ? AccessType::Store
                                         : AccessType::Load;
            rec.access.block = 1 + (i * 3) % 13;
        }
        out.push_back(rec);
    }
    return out;
}

TEST(Differ, StandardVariantsAgreeOnFuzzStreams)
{
    const auto variants = Differ::standardVariants(4);
    ASSERT_GE(variants.size(), 15u); // incl. the dls/phasepri backends
    Differ differ(variants);
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto stream = fuzzStream(seed, 4, 6000);
        const DifferResult res = differ.run(stream);
        EXPECT_TRUE(res.ok())
            << "seed " << seed << ": " << res.divergence.rule << " @ "
            << res.divergence.accessIndex << " ["
            << res.divergence.instance
            << "]: " << res.divergence.detail;
        EXPECT_EQ(res.accesses, stream.size());
        EXPECT_GT(res.sweeps, 0u);
    }
}

TEST(Differ, RivalBackendsHoldTheValueOracle)
{
    // A focused cross-backend equivalence class: the MESI reference and
    // the canonical ZeroDEV flavour against both rival protocol
    // backends. Their private-cache states legitimately differ from
    // MESI's (DLS has no E state, phase-priority evicts on a different
    // schedule), so equivalence here is exactly what the value oracle
    // checks: every load observes the last value stored.
    const auto all = Differ::standardVariants(4);
    std::vector<Variant> rivals;
    for (const Variant &v : all) {
        if (v.name == "unbounded" || v.name == "zdev-fpss" ||
            v.name == "dls" || v.name == "phasepri") {
            rivals.push_back(v);
        }
    }
    ASSERT_EQ(rivals.size(), 4u);
    Differ differ(rivals);
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        const auto stream = fuzzStream(seed, 4, 6000);
        const DifferResult res = differ.run(stream);
        EXPECT_TRUE(res.ok())
            << "seed " << seed << ": " << res.divergence.rule << " @ "
            << res.divergence.accessIndex << " ["
            << res.divergence.instance
            << "]: " << res.divergence.detail;
        EXPECT_GT(res.sweeps, 0u);
    }
}

TEST(Differ, FuzzStreamIsDeterministicPerSeed)
{
    const auto a = fuzzStream(7, 4, 2000);
    const auto b = fuzzStream(7, 4, 2000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].core, b[i].core);
        EXPECT_EQ(a[i].access.block, b[i].access.block);
        EXPECT_EQ(a[i].access.type, b[i].access.type);
    }
    const auto c = fuzzStream(8, 4, 2000);
    bool differs = false;
    for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
        if (a[i].access.block != c[i].access.block)
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Differ, PlantedFaultIsDetected)
{
    Differ differ(Differ::quickVariants(4));
    FaultHook hook;
    hook.enabled = true;
    hook.instance = 1;
    hook.block = 7;
    hook.afterStores = 2;
    differ.setFaultHook(hook);

    const auto stream = patternStream(7);
    const DifferResult res = differ.run(stream);
    ASSERT_TRUE(res.divergence.found);
    EXPECT_EQ(res.divergence.rule, "load-value");
    EXPECT_EQ(res.divergence.instance, differ.variants()[1].name);
    EXPECT_LT(res.divergence.accessIndex, stream.size());
    // Without the hook the very same stream is clean.
    Differ clean(Differ::quickVariants(4));
    EXPECT_TRUE(clean.run(stream).ok());
}

TEST(Shrink, PlantedFaultShrinksToMinimalRepro)
{
    Differ differ(Differ::quickVariants(4));
    FaultHook hook;
    hook.enabled = true;
    hook.instance = 1;
    hook.block = 7;
    hook.afterStores = 2;
    differ.setFaultHook(hook);

    const auto stream = patternStream(7);
    ASSERT_TRUE(differ.run(stream).divergence.found);

    const ShrinkResult res = shrinkTrace(differ, stream);
    ASSERT_TRUE(res.shrunk());
    EXPECT_EQ(res.originalSize, stream.size());
    EXPECT_FALSE(res.hitCandidateCap);
    // The fault fires on a load of block 7 after two stores to it, so
    // the 1-minimal repro is exactly those three records in order.
    ASSERT_EQ(res.trace.size(), 3u);
    EXPECT_EQ(res.trace[0].access.type, AccessType::Store);
    EXPECT_EQ(res.trace[0].access.block, 7u);
    EXPECT_EQ(res.trace[1].access.type, AccessType::Store);
    EXPECT_EQ(res.trace[1].access.block, 7u);
    EXPECT_EQ(res.trace[2].access.type, AccessType::Load);
    EXPECT_EQ(res.trace[2].access.block, 7u);
    EXPECT_EQ(res.divergence.rule, "load-value");
    // Well under the 50-access repro bound the corpus workflow expects.
    EXPECT_LE(res.trace.size(), 50u);
    // Re-validating the shrunk trace still diverges; dropping its last
    // record does not (1-minimality spot check).
    EXPECT_TRUE(differ.run(res.trace).divergence.found);
    auto less = res.trace;
    less.pop_back();
    EXPECT_FALSE(differ.run(less).divergence.found);
}

TEST(Shrink, CleanTraceComesBackUntouched)
{
    Differ differ(Differ::quickVariants(4));
    const auto stream = patternStream(9, 60);
    const ShrinkResult res = shrinkTrace(differ, stream);
    EXPECT_FALSE(res.shrunk());
    EXPECT_EQ(res.trace.size(), stream.size());
    EXPECT_EQ(res.candidatesTried, 1u);
}

TEST(Shrink, CandidateCapStopsEarly)
{
    Differ differ(Differ::quickVariants(4));
    FaultHook hook;
    hook.enabled = true;
    hook.instance = 1;
    hook.block = 7;
    hook.afterStores = 2;
    differ.setFaultHook(hook);

    ShrinkOptions opt;
    opt.maxCandidates = 3;
    const ShrinkResult res = shrinkTrace(differ, patternStream(7), opt);
    EXPECT_TRUE(res.shrunk());
    EXPECT_TRUE(res.hitCandidateCap);
    EXPECT_LE(res.candidatesTried, 4u);
}

TEST(Differ, RejectsMismatchedCoreCounts)
{
    auto variants = Differ::quickVariants(4);
    auto bad = Differ::quickVariants(8);
    variants.push_back(bad.front());
    variants.back().name = "odd-one-out";
    EXPECT_DEATH({ Differ d(std::move(variants)); }, "core count");
}

TEST(Differ, MultiSocketVariantsCoverBothPartitionings)
{
    const auto variants = Differ::standardVariants(4);
    bool single = false, dual = false;
    for (const Variant &v : variants) {
        if (v.cfg.sockets == 1)
            single = true;
        if (v.cfg.sockets == 2)
            dual = true;
    }
    EXPECT_TRUE(single);
    EXPECT_TRUE(dual);
}

// ---------------------------------------------------------------------
// Parallel lockstep: the verdict must not depend on the job count
// ---------------------------------------------------------------------

/** @p fn's result with the process job count pinned to @p jobs. */
template <typename Fn>
DifferResult
withJobs(unsigned jobs, Fn &&fn)
{
    setJobs(jobs);
    DifferResult res = fn();
    setJobs(0);
    return res;
}

void
expectSameDivergence(const Divergence &a, const Divergence &b)
{
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.rule, b.rule);
    EXPECT_EQ(a.instance, b.instance);
    EXPECT_EQ(a.accessIndex, b.accessIndex);
    EXPECT_EQ(a.detail, b.detail);
}

void
expectSameCheckpoint(const DifferCheckpoint &a, const DifferCheckpoint &b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.accessIndex, b.accessIndex);
    EXPECT_EQ(a.versions, b.versions);
    ASSERT_EQ(a.instances.size(), b.instances.size());
    for (std::size_t i = 0; i < a.instances.size(); ++i) {
        EXPECT_EQ(a.instances[i].system, b.instances[i].system) << i;
        EXPECT_EQ(a.instances[i].now, b.instances[i].now) << i;
        EXPECT_EQ(a.instances[i].poisoned, b.instances[i].poisoned) << i;
    }
}

/** A fuzz stream with a fault trigger spliced in: two stores to an
 *  otherwise untouched block early on, and the first load of it at
 *  record @p loadAt (the planted fault fires exactly there). */
std::vector<TraceRecord>
streamWithTriggerAt(std::uint64_t loadAt, BlockAddr block)
{
    auto stream = fuzzStream(5, 4, 3000);
    for (const std::uint64_t i : {std::uint64_t{100}, std::uint64_t{600}}) {
        stream[i].access.type = AccessType::Store;
        stream[i].access.block = block;
    }
    stream[loadAt].access.type = AccessType::Load;
    stream[loadAt].access.block = block;
    return stream;
}

TEST(Differ, ParallelLockstepMatchesSerialOnStandardVariants)
{
    DifferOptions opt;
    opt.snapshotCadence = 1000;
    const Differ differ(Differ::standardVariants(4), opt);
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE(seed);
        const auto stream = fuzzStream(seed, 4, 5000);
        const DifferResult serial =
            withJobs(1, [&] { return differ.run(stream); });
        const DifferResult parallel =
            withJobs(4, [&] { return differ.run(stream); });
        EXPECT_TRUE(serial.ok());
        EXPECT_EQ(parallel.ok(), serial.ok());
        EXPECT_EQ(parallel.accesses, serial.accesses);
        EXPECT_EQ(parallel.sweeps, serial.sweeps);
        EXPECT_EQ(serial.checkpoint.accessIndex, 5000u);
        expectSameCheckpoint(parallel.checkpoint, serial.checkpoint);
    }
}

TEST(Differ, ParallelLockstepReportsTheSerialDivergence)
{
    // Mid-chunk (the default core-state cadence cuts chunks every 1024
    // records) and on a chunk's last record; with the fault in instance
    // 0 every other instance disagrees and instance 1 must be named.
    const BlockAddr block = 1u << 20;
    for (const std::uint64_t loadAt : {std::uint64_t{1500},
                                       std::uint64_t{1023}}) {
        for (const std::size_t faulty : {std::size_t{4}, std::size_t{0}}) {
            SCOPED_TRACE(std::to_string(loadAt) + "/" +
                         std::to_string(faulty));
            Differ differ(Differ::standardVariants(4));
            FaultHook hook;
            hook.enabled = true;
            hook.instance = faulty;
            hook.block = block;
            hook.afterStores = 2;
            differ.setFaultHook(hook);
            const auto stream = streamWithTriggerAt(loadAt, block);
            const DifferResult serial =
                withJobs(1, [&] { return differ.run(stream); });
            const DifferResult parallel =
                withJobs(4, [&] { return differ.run(stream); });
            ASSERT_TRUE(serial.divergence.found);
            EXPECT_EQ(serial.divergence.rule, "load-value");
            EXPECT_EQ(serial.divergence.accessIndex, loadAt);
            EXPECT_EQ(serial.divergence.instance,
                      differ.variants()[faulty ? faulty : 1].name);
            EXPECT_EQ(serial.accesses, loadAt + 1);
            expectSameDivergence(parallel.divergence, serial.divergence);
            EXPECT_EQ(parallel.accesses, serial.accesses);
            EXPECT_EQ(parallel.sweeps, serial.sweeps);
        }
    }
}

TEST(Differ, ParallelResumeReachesTheSameVerdict)
{
    const BlockAddr block = 1u << 20;
    DifferOptions opt;
    opt.snapshotCadence = 1000;
    Differ differ(Differ::standardVariants(4), opt);
    FaultHook hook;
    hook.enabled = true;
    hook.instance = 2;
    hook.block = block;
    hook.afterStores = 2;
    differ.setFaultHook(hook);
    const auto stream = streamWithTriggerAt(2500, block);

    const DifferResult full =
        withJobs(1, [&] { return differ.run(stream); });
    ASSERT_TRUE(full.divergence.found);
    ASSERT_TRUE(full.checkpoint.valid);
    EXPECT_EQ(full.checkpoint.accessIndex, 2000u);
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        const DifferResult resumed = withJobs(
            jobs, [&] { return differ.resume(full.checkpoint, stream); });
        expectSameDivergence(resumed.divergence, full.divergence);
        EXPECT_EQ(resumed.accesses, full.accesses);
    }
}

} // namespace
} // namespace zerodev::verify
