/**
 * @file
 * Tests for the workload layer: generator determinism, region
 * separation, profile calibration sanity, workload builders (rate /
 * multithreaded / heterogeneous mixes) and trace record/replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "workload/app_profiles.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

namespace zerodev
{
namespace
{

TEST(Generator, Deterministic)
{
    const AppProfile p = profileByName("canneal");
    const RegionLayout lay(0, 0, 1);
    ThreadGenerator a(p, lay, 0, 4, 42);
    ThreadGenerator b(p, lay, 0, 4, 42);
    for (int i = 0; i < 1000; ++i) {
        const MemAccess x = a.next();
        const MemAccess y = b.next();
        EXPECT_EQ(x.block, y.block);
        EXPECT_EQ(x.type, y.type);
        EXPECT_EQ(x.gap, y.gap);
    }
}

TEST(Generator, ThreadsSeparatePrivateData)
{
    const AppProfile p = profileByName("swaptions");
    const RegionLayout l0(0, 0, 1), l1(0, 1, 1);
    EXPECT_NE(l0.privateBase, l1.privateBase);
    EXPECT_EQ(l0.sharedBase, l1.sharedBase); // same process
    EXPECT_EQ(l0.codeBase, l1.codeBase);
}

TEST(Generator, InstancesSeparateSharedData)
{
    const RegionLayout a(0, 0, 5), b(1, 0, 5);
    EXPECT_NE(a.sharedBase, b.sharedBase);
    EXPECT_EQ(a.codeBase, b.codeBase); // same binary
}

TEST(Generator, MixtureRoughlyMatchesProbabilities)
{
    AppProfile p = profileByName("freqmine"); // pSharedRw = 0.14
    const RegionLayout lay(0, 0, 1);
    ThreadGenerator g(p, lay, 0, 8, 7);
    const int n = 50000;
    int ifetch = 0, shared_rw = 0;
    for (int i = 0; i < n; ++i) {
        const MemAccess a = g.next();
        if (a.type == AccessType::Ifetch)
            ++ifetch;
        else if (a.block >= lay.sharedBase + (1ull << 23))
            ++shared_rw;
    }
    EXPECT_NEAR(static_cast<double>(ifetch) / n, p.pIfetch, 0.01);
    EXPECT_NEAR(static_cast<double>(shared_rw) / n, p.pSharedRw, 0.02);
}

TEST(Generator, StreamRegionIsSequential)
{
    AppProfile p;
    p.name = "stream-test";
    p.pStream = 1.0;
    p.pIfetch = 0.0;
    p.streamBlocks = 1000;
    p.streamRepeat = 4;
    const RegionLayout lay(0, 0, 1);
    ThreadGenerator g(p, lay, 0, 1, 3);
    BlockAddr prev = g.next().block;
    for (int i = 1; i < 100; ++i) {
        const BlockAddr cur = g.next().block;
        // Each block is touched streamRepeat times, then the stream
        // advances to the next block.
        if (i % 4 == 0)
            EXPECT_EQ(cur, prev + 1);
        else
            EXPECT_EQ(cur, prev);
        prev = cur;
    }
}

TEST(Profiles, AllSuitesPresentWithPaperCounts)
{
    EXPECT_EQ(parsecProfiles().size(), 10u);
    EXPECT_EQ(splash2xProfiles().size(), 9u);
    EXPECT_EQ(specOmpProfiles().size(), 6u);
    EXPECT_EQ(fftwProfiles().size(), 1u);
    EXPECT_EQ(cpu2017Profiles().size(), 36u); // the Figure 21 x-axis
    EXPECT_EQ(serverProfiles().size(), 7u);   // the Figure 24 x-axis
}

TEST(Profiles, SuiteSharingOrdering)
{
    // SPLASH2X shares more than PARSEC; SPEC OMP and FFTW share almost
    // nothing (Section III-C2's shared-entry fractions).
    auto shared_weight = [](const std::vector<AppProfile> &v) {
        double s = 0;
        for (const auto &p : v)
            s += p.pSharedRo + p.pSharedRw;
        return s / static_cast<double>(v.size());
    };
    const double parsec = shared_weight(parsecProfiles());
    const double splash = shared_weight(splash2xProfiles());
    const double specomp = shared_weight(specOmpProfiles());
    const double fftw = shared_weight(fftwProfiles());
    EXPECT_GT(splash, parsec);
    EXPECT_LT(specomp, parsec / 4);
    EXPECT_LT(fftw, 0.01);
}

TEST(Profiles, LookupByName)
{
    EXPECT_EQ(profileByName("xalancbmk").suite, "cpu2017");
    EXPECT_EQ(profileByName("TPC-H").suite, "server");
    EXPECT_GT(profileByName("xalancbmk").privateBlocks,
              profileByName("povray").privateBlocks);
}

TEST(Workload, RateSharesCodeOnly)
{
    const Workload w = Workload::rate(profileByName("xalancbmk"), 8);
    EXPECT_EQ(w.threadCount(), 8u);
    EXPECT_TRUE(w.multiProgrammed());
    ThreadGenerator g0 = w.makeGenerator(0);
    ThreadGenerator g5 = w.makeGenerator(5);
    std::set<BlockAddr> blocks0, blocks5;
    bool overlap_code = false;
    for (int i = 0; i < 20000; ++i) {
        const MemAccess a = g0.next(), b = g5.next();
        if (a.type != AccessType::Ifetch)
            blocks0.insert(a.block);
        if (b.type != AccessType::Ifetch)
            blocks5.insert(b.block);
        if (a.type == AccessType::Ifetch)
            overlap_code = true;
    }
    // Data regions never overlap across rate copies.
    for (BlockAddr b : blocks5)
        EXPECT_EQ(blocks0.count(b), 0u);
    EXPECT_TRUE(overlap_code);
}

TEST(Workload, MultiThreadedSharesData)
{
    const Workload w =
        Workload::multiThreaded(profileByName("freqmine"), 4);
    EXPECT_FALSE(w.multiProgrammed());
    ThreadGenerator g0 = w.makeGenerator(0);
    ThreadGenerator g3 = w.makeGenerator(3);
    std::set<BlockAddr> b0;
    for (int i = 0; i < 20000; ++i)
        b0.insert(g0.next().block);
    bool shared = false;
    for (int i = 0; i < 20000 && !shared; ++i)
        shared = b0.count(g3.next().block) != 0;
    EXPECT_TRUE(shared);
}

TEST(Workload, HetMixesEqualRepresentation)
{
    const auto mixes = Workload::hetMixes(36, 8);
    ASSERT_EQ(mixes.size(), 36u);
    std::map<std::string, int> counts;
    for (const auto &m : mixes) {
        EXPECT_EQ(m.threadCount(), 8u);
        for (std::uint32_t i = 0; i < 8; ++i)
            counts[m.profileOf(i).name] += 1;
    }
    EXPECT_EQ(counts.size(), 36u);
    for (const auto &[name, n] : counts)
        EXPECT_EQ(n, 8) << name;
}

TEST(Trace, RoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "zdev_trace_roundtrip.trc";
    {
        TraceWriter w(path, 2);
        w.append({0, {AccessType::Load, 100, 3}});
        w.append({1, {AccessType::Store, 200, 0}});
        w.append({0, {AccessType::Ifetch, 300, 7}});
    }
    TraceReader r(path);
    EXPECT_EQ(r.cores(), 2u);
    ASSERT_EQ(r.records().size(), 3u);
    EXPECT_EQ(r.records()[0].access.block, 100u);
    EXPECT_EQ(r.records()[1].core, 1u);
    EXPECT_EQ(r.records()[1].access.type, AccessType::Store);
    EXPECT_EQ(r.records()[2].access.gap, 7u);
    std::remove(path.c_str());
}

} // namespace
} // namespace zerodev
