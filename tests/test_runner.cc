/**
 * @file
 * Tests for the simulation runner and experiment helpers: fixed-work
 * execution, determinism, speedup/weighted-speedup arithmetic, trace
 * record-replay equivalence, the issue loop's cadences and preemption
 * for both sources (generators and traces), state-neutral invariant
 * sweeps and the energy model's monotonicity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "core/energy_model.hh"
#include "interconnect/mesh.hh"
#include "obs/report.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "test_util.hh"
#include "verify/differ.hh"

namespace zerodev
{
namespace
{

RunConfig
quick(std::uint64_t n = 3000)
{
    RunConfig rc;
    rc.accessesPerCore = n;
    rc.invariantCheckInterval = 2000;
    return rc;
}

TEST(Runner, ExecutesFixedWorkPerCore)
{
    CmpSystem sys(testutil::tinyConfig());
    const Workload w =
        Workload::multiThreaded(profileByName("swaptions"), 2);
    const RunResult r = run(sys, w, quick());
    EXPECT_EQ(r.coreCycles.size(), 2u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    // Both cores executed 3000 accesses; instructions >= accesses.
    EXPECT_GE(r.coreInstructions[0], 3000u);
    EXPECT_GE(r.coreInstructions[1], 3000u);
}

TEST(Runner, DeterministicAcrossRuns)
{
    const Workload w =
        Workload::multiThreaded(profileByName("canneal"), 2);
    CmpSystem a(testutil::tinyConfig());
    CmpSystem b(testutil::tinyConfig());
    const RunResult ra = run(a, w, quick());
    const RunResult rb = run(b, w, quick());
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.trafficBytes, rb.trafficBytes);
    EXPECT_EQ(ra.coreCacheMisses, rb.coreCacheMisses);
}

TEST(Runner, ZeroDevRunIsDevFree)
{
    CmpSystem sys(testutil::tinyZeroDev(0.125));
    const Workload w =
        Workload::multiThreaded(profileByName("freqmine"), 2);
    const RunResult r = run(sys, w, quick(5000));
    EXPECT_EQ(r.devInvalidations, 0u);
}

TEST(Runner, BaselineTinyDirectoryGeneratesDevs)
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.directory.sizeRatio = 0.0625;
    CmpSystem sys(cfg);
    const Workload w =
        Workload::multiThreaded(profileByName("canneal"), 2);
    const RunResult r = run(sys, w, quick(5000));
    EXPECT_GT(r.devInvalidations, 0u);
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "zdev_runner_" + name;
}

TEST(Runner, TraceReplayMatchesLiveRun)
{
    const std::string path = tmpPath("replay_live.trc");
    const Workload w =
        Workload::multiThreaded(profileByName("swaptions"), 2);
    RunConfig rc = quick(2000);
    rc.tracePath = path;
    CmpSystem live(testutil::tinyConfig());
    const RunResult r_live = run(live, w, rc);

    TraceReader reader(path);
    CmpSystem replayed(testutil::tinyConfig());
    const RunResult r_replay = replay(replayed, reader, RunConfig{});
    EXPECT_EQ(r_live.cycles, r_replay.cycles);
    EXPECT_EQ(r_live.trafficBytes, r_replay.trafficBytes);
    std::remove(path.c_str());
}

/** Record @p per_core accesses per core of canneal on @p cfg. */
TraceReader
recordTrace(const SystemConfig &cfg, std::uint64_t per_core,
            const std::string &path)
{
    RunConfig rc;
    rc.accessesPerCore = per_core;
    rc.tracePath = path;
    CmpSystem sys(cfg);
    run(sys,
        Workload::multiThreaded(profileByName("canneal"), sys.totalCores()),
        rc);
    return TraceReader::mustLoad(path);
}

std::vector<std::uint8_t>
stateBytes(const CmpSystem &sys)
{
    SerialOut out;
    sys.saveState(out);
    return out.data();
}

/** Run report with the only host-dependent field zeroed. */
std::string
reportFor(const SystemConfig &cfg, RunResult res)
{
    res.wallSeconds = 0.0;
    return obs::runReportJson(cfg, res);
}

#if ZERODEV_ASSERTS
TEST(Runner, ReplayHonoursTheInvariantCadence)
{
    // A leaked pool message stands in for a protocol bug; the periodic
    // sweep of a replay must trip over it just as run()'s does.
    const SystemConfig cfg = testutil::tinyZeroDev(0.125);
    const std::string trc = tmpPath("cadence.trc");
    const TraceReader trace = recordTrace(cfg, 500, trc);
    std::remove(trc.c_str());

    CmpSystem sys(cfg);
    const_cast<Mesh &>(sys.mesh(0)).msgPool().acquire();
    RunConfig rc;
    rc.invariantCheckInterval = 300;
    EXPECT_DEATH(replay(sys, trace, rc), "message-pool-leak");
}
#endif // ZERODEV_ASSERTS

TEST(Runner, ReplayHonoursStopRequest)
{
    const SystemConfig cfg = testutil::tinyZeroDev(0.125);
    const std::string trc = tmpPath("stop.trc");
    const TraceReader trace = recordTrace(cfg, 1000, trc);
    std::remove(trc.c_str());

    CmpSystem refSys(cfg);
    const RunResult ref = replay(refSys, trace, RunConfig{});
    ASSERT_FALSE(ref.interrupted);

    // A stop raised before the replay starts lands on the first poll.
    const std::string ckpt = tmpPath("stop.snap");
    std::remove(ckpt.c_str());
    const std::atomic<bool> stop{true};
    RunConfig leg1;
    leg1.stopRequest = &stop;
    leg1.snapshotPath = ckpt;
    CmpSystem sys1(cfg);
    const RunResult r1 = replay(sys1, trace, leg1);
    EXPECT_TRUE(r1.interrupted);
    EXPECT_LT(r1.accesses, ref.accesses);

    RunConfig leg2;
    leg2.restorePath = ckpt; // fatal if the stop wrote no checkpoint
    CmpSystem sys2(cfg);
    const RunResult r2 = replay(sys2, trace, leg2);
    EXPECT_FALSE(r2.interrupted);
    EXPECT_EQ(r2.cycles, ref.cycles);
    EXPECT_EQ(r2.coreCycles, ref.coreCycles);
    EXPECT_EQ(r2.coreInstructions, ref.coreInstructions);
    EXPECT_EQ(r2.accesses, ref.accesses);
    EXPECT_EQ(reportFor(cfg, r2), reportFor(cfg, ref));
    EXPECT_EQ(stateBytes(sys2), stateBytes(refSys));
    std::remove(ckpt.c_str());
}

TEST(Runner, InvariantSweepsChangeNoState)
{
    // A swept run must serialize to the same bytes and render the same
    // report as an unswept one, on every variant and for both sources:
    // sweeps observe the system, they do not count as its activity.
    for (const verify::Variant &v : verify::Differ::standardVariants(4)) {
        SCOPED_TRACE(v.name);
        const Workload w =
            Workload::multiThreaded(profileByName("canneal"), 4);
        const std::string trc = tmpPath("swept_" + v.name + ".trc");
        RunConfig plain;
        plain.accessesPerCore = 1500;
        plain.tracePath = trc;
        RunConfig swept = plain;
        swept.invariantCheckInterval = 1000;
        swept.tracePath.clear();

        CmpSystem a(v.cfg), b(v.cfg);
        const RunResult ra = run(a, w, plain);
        const RunResult rb = run(b, w, swept);
        EXPECT_EQ(stateBytes(a), stateBytes(b));
        EXPECT_EQ(reportFor(v.cfg, ra), reportFor(v.cfg, rb));

        const TraceReader trace = TraceReader::mustLoad(trc);
        std::remove(trc.c_str());
        plain.tracePath.clear();
        CmpSystem c(v.cfg), d(v.cfg);
        const RunResult rc = replay(c, trace, plain);
        const RunResult rd = replay(d, trace, swept);
        EXPECT_EQ(stateBytes(c), stateBytes(d));
        EXPECT_EQ(reportFor(v.cfg, rc), reportFor(v.cfg, rd));
    }
}

TEST(Experiment, SpeedupArithmetic)
{
    RunResult base, test;
    base.cycles = 2000;
    test.cycles = 1000;
    EXPECT_DOUBLE_EQ(speedup(base, test), 2.0);

    base.coreCycles = {1000, 1000};
    base.coreInstructions = {1000, 2000};
    test.coreCycles = {500, 2000};
    test.coreInstructions = {1000, 2000};
    // Core 0 doubled its IPC, core 1 halved it: WS = (2 + 0.5)/2.
    EXPECT_DOUBLE_EQ(weightedSpeedup(base, test), 1.25);
}

TEST(Experiment, TableRendersAlignedColumns)
{
    Table t({"app", "speedup"});
    t.addRow("freqmine", {0.97});
    t.addRow({"a-very-long-name", "1.002"});
    const std::string s = t.render();
    EXPECT_NE(s.find("app"), std::string::npos);
    EXPECT_NE(s.find("freqmine"), std::string::npos);
    EXPECT_NE(s.find("0.970"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Energy, BiggerStructuresCostMore)
{
    const StructureEnergy small = estimateSram(128 * 1024, 8);
    const StructureEnergy big = estimateSram(8 * 1024 * 1024, 8);
    EXPECT_GT(big.readNj, small.readNj);
    EXPECT_GT(big.leakageMw, small.leakageMw);
    EXPECT_GT(big.areaMm2, small.areaMm2);
}

TEST(Energy, RemovingDirectorySavesEnergy)
{
    SystemConfig with_dir = makeEightCoreConfig();
    SystemConfig no_dir = makeEightCoreConfig();
    applyZeroDev(no_dir, 0.0);

    EnergyActivity act;
    act.dirLookups = 1000000;
    act.llcTagLookups = 1000000;
    act.llcDataReads = 600000;
    act.llcDataWrites = 200000;
    act.cycles = 100000000;

    EnergyActivity act_nodir = act;
    act_nodir.dirLookups = 0;
    act_nodir.llcDeAccesses = 300000; // extra DE reads/writes

    const double e_base = energyOfRun(with_dir, act).totalMj();
    const double e_zdev = energyOfRun(no_dir, act_nodir).totalMj();
    EXPECT_LT(e_zdev, e_base);
    // The saving is in the single-digit-percent range, not 2x.
    EXPECT_GT(e_zdev, 0.75 * e_base);
}

TEST(Energy, DirEntryBytes)
{
    EXPECT_EQ(dirEntryBytes(8), 5u);   // 37 bits
    EXPECT_EQ(dirEntryBytes(128), 20u); // 157 bits
}

} // namespace
} // namespace zerodev
