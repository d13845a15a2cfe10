/**
 * @file
 * Tests for the core public API: mechanism metadata, the runner, the
 * experiment sweeps, and report formatting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/stream.hh"
#include "core/experiments.hh"
#include "core/report.hh"

namespace alewife::core {
namespace {

apps::Stream::Params
tinyStream()
{
    apps::Stream::Params p;
    p.valuesPerIter = 16;
    p.iters = 2;
    p.computePerValue = 10.0;
    return p;
}

TEST(Mechanism, NamesRoundTrip)
{
    for (Mechanism m : allMechanisms()) {
        EXPECT_EQ(mechanismFromName(mechanismShortName(m)),
                  std::optional(m));
        EXPECT_EQ(mechanismFromName(mechanismName(m)), std::optional(m));
    }
    EXPECT_EQ(mechanismFromName("SMX"), std::nullopt);
}

TEST(Mechanism, StyleAndModeAreConsistent)
{
    EXPECT_EQ(syncStyle(Mechanism::SharedMemory),
              proc::SyncStyle::SharedMemory);
    EXPECT_EQ(syncStyle(Mechanism::SharedMemoryPrefetch),
              proc::SyncStyle::SharedMemory);
    EXPECT_EQ(syncStyle(Mechanism::MpInterrupt),
              proc::SyncStyle::MessagePassing);
    EXPECT_EQ(recvMode(Mechanism::MpPolling), msg::RecvMode::Polling);
    EXPECT_EQ(recvMode(Mechanism::MpInterrupt),
              msg::RecvMode::Interrupt);
    EXPECT_EQ(recvMode(Mechanism::BulkTransfer),
              msg::RecvMode::Interrupt);
    EXPECT_TRUE(usesPrefetch(Mechanism::SharedMemoryPrefetch));
    EXPECT_FALSE(usesPrefetch(Mechanism::SharedMemory));
}

TEST(Runner, ProducesVerifiedResultWithStatistics)
{
    apps::Stream app(tinyStream());
    RunSpec spec;
    spec.mechanism = Mechanism::MpInterrupt;
    const RunResult r = runApp(app, spec);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.runtimeCycles, 0.0);
    EXPECT_GT(r.volume.total(), 0u);
    EXPECT_GT(r.simEvents, 0u);
    EXPECT_EQ(r.app, "stream");
    // The breakdown is a per-node average: it cannot exceed runtime.
    EXPECT_LE(r.breakdown.total(),
              cyclesToTicks(r.runtimeCycles) + kTicksPerCycle);
}

TEST(Runner, CrossTrafficSlowsTheRun)
{
    const auto factory = apps::Stream::factory(tinyStream());
    RunSpec plain;
    plain.mechanism = Mechanism::SharedMemory;
    RunSpec congested = plain;
    congested.crossTraffic.bytesPerCycle = 14.0;
    const auto a = runApp(factory, plain);
    const auto b = runApp(factory, congested);
    EXPECT_GT(b.runtimeCycles, a.runtimeCycles);
    EXPECT_TRUE(b.verified);
}

TEST(Experiments, BisectionSweepShapes)
{
    const auto factory = apps::Stream::factory(tinyStream());
    MachineConfig base;
    const auto series =
        bisectionSweep(factory, base,
                       {Mechanism::SharedMemory,
                        Mechanism::MpInterrupt},
                       {18.0, 6.0});
    ASSERT_EQ(series.size(), 2u);
    ASSERT_EQ(series[0].points.size(), 2u);
    // Less bandwidth can't make anything meaningfully faster (allow
    // ~3% timing jitter from retry scheduling).
    for (const auto &s : series) {
        EXPECT_GE(s.points[1].result.runtimeCycles,
                  s.points[0].result.runtimeCycles * 0.97);
    }
    // SM is hurt at least as much as MP.
    const double sm_growth = series[0].points[1].result.runtimeCycles
                             / series[0].points[0].result.runtimeCycles;
    const double mp_growth = series[1].points[1].result.runtimeCycles
                             / series[1].points[0].result.runtimeCycles;
    EXPECT_GE(sm_growth, mp_growth * 0.95);
}

TEST(Experiments, ClockSweepReportsLatencyAxis)
{
    const auto factory = apps::Stream::factory(tinyStream());
    MachineConfig base;
    const auto series = clockSweep(
        factory, base, {Mechanism::SharedMemory}, {14.0, 20.0});
    ASSERT_EQ(series[0].points.size(), 2u);
    // Faster clock => higher relative network latency on the x axis.
    EXPECT_LT(series[0].points[0].x, series[0].points[1].x);
}

TEST(Experiments, IdealSweepKeepsMpFlat)
{
    const auto factory = apps::Stream::factory(tinyStream());
    MachineConfig base;
    const auto series = idealLatencySweep(
        factory, base,
        {Mechanism::SharedMemory, Mechanism::MpInterrupt},
        {20.0, 200.0});
    // SM must degrade with latency...
    EXPECT_GT(series[0].points[1].result.runtimeCycles,
              series[0].points[0].result.runtimeCycles * 1.2);
    // ...while the MP reference is replicated flat, as in the paper.
    EXPECT_DOUBLE_EQ(series[1].points[0].result.runtimeCycles,
                     series[1].points[1].result.runtimeCycles);
}

TEST(ExperimentsDeath, PlanRejectsBisectionsOutsideZeroToNative)
{
    // Planning runs no simulation, so a bad target dies before any
    // event: at or below 0 the cross traffic would saturate the
    // bisection, and above native there is nothing to take away.
    MachineConfig base; // native bisection: 18 bytes/cycle
    SweepRequest req;
    req.kind = SweepKind::Bisection;
    req.mechs = {Mechanism::SharedMemory};
    for (double target : {0.0, -3.0, 18.5}) {
        req.points = {target};
        EXPECT_EXIT(planSweep(base, req), ::testing::ExitedWithCode(1),
                    "cannot emulate a bisection of .* bytes/cycle: it "
                    "must be above 0 and at most the native 18 "
                    "bytes/cycle")
            << target;
    }
}

TEST(Report, TablesRenderWithoutCrashing)
{
    apps::Stream app(tinyStream());
    RunSpec spec;
    spec.mechanism = Mechanism::SharedMemory;
    const RunResult r = runApp(app, spec);

    std::ostringstream os;
    printBreakdownTable(os, "t", {r});
    printVolumeTable(os, "t", {r});
    printCounters(os, r);
    printTable1(os);
    printTable2(os);
    EXPECT_NE(os.str().find("SM"), std::string::npos);
    EXPECT_NE(os.str().find("MIT Alewife"), std::string::npos);
}

TEST(Report, SeriesAlignsColumnsToMechanisms)
{
    const auto factory = apps::Stream::factory(tinyStream());
    MachineConfig base;
    const auto series = bisectionSweep(
        factory, base, {Mechanism::MpInterrupt}, {18.0});
    std::ostringstream os;
    printSeries(os, "title", "x", series);
    EXPECT_NE(os.str().find("MP-I"), std::string::npos);
    EXPECT_NE(os.str().find("18.00"), std::string::npos);
}

} // namespace
} // namespace alewife::core
