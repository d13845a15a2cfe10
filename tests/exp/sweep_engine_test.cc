/**
 * @file
 * Tests for the parallel sweep engine: ordering, serial/parallel
 * equivalence, cache integration, and progress telemetry.
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/stream.hh"
#include "core/experiments.hh"
#include "exp/result_cache.hh"
#include "exp/sweep_engine.hh"

namespace alewife::exp {
namespace {

using core::Mechanism;

core::AppFactory
tinyStream()
{
    apps::Stream::Params p;
    p.valuesPerIter = 16;
    p.iters = 2;
    return apps::Stream::factory(p);
}

EngineOptions
withJobs(int n)
{
    EngineOptions o;
    o.jobs = n;
    return o;
}

std::vector<Job>
mechanismJobs(const std::string &appKey = "")
{
    std::vector<Job> jobs;
    for (Mechanism m : core::allMechanisms()) {
        Job j;
        j.app = tinyStream();
        j.spec.mechanism = m;
        j.appKey = appKey;
        jobs.push_back(std::move(j));
    }
    return jobs;
}

void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.mechanism, b.mechanism);
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.volume.total(), b.volume.total());
    EXPECT_EQ(a.counters.packetsInjected, b.counters.packetsInjected);
    EXPECT_EQ(a.counters.cacheHits, b.counters.cacheHits);
}

TEST(SweepEngine, ResultsArriveInSubmissionOrder)
{
    SweepEngine engine(withJobs(4));
    const auto results = engine.run(mechanismJobs());
    const auto mechs = core::allMechanisms();
    ASSERT_EQ(results.size(), mechs.size());
    for (std::size_t i = 0; i < mechs.size(); ++i) {
        EXPECT_EQ(results[i].mechanism, mechs[i]);
        EXPECT_TRUE(results[i].verified);
    }
}

TEST(SweepEngine, ParallelMatchesSerialExactly)
{
    SweepEngine serial(withJobs(1));
    SweepEngine parallel(withJobs(4));
    const auto a = serial.run(mechanismJobs());
    const auto b = parallel.run(mechanismJobs());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);
}

TEST(SweepEngine, EmptyBatchIsFine)
{
    int hookCalls = 0;
    EngineOptions opts;
    opts.onProgress = [&](const Progress &) { ++hookCalls; };
    SweepEngine engine(opts);
    EXPECT_TRUE(engine.run({}).empty());
    EXPECT_EQ(engine.progress().queued, 0);
    EXPECT_EQ(engine.progress().done, 0);
    EXPECT_EQ(hookCalls, 1);
}

TEST(SweepEngine, ProgressCountsEveryJob)
{
    std::vector<Progress> snapshots;
    EngineOptions opts;
    opts.jobs = 4;
    opts.onProgress = [&](const Progress &p) {
        snapshots.push_back(p);
    };
    SweepEngine engine(opts);
    engine.run(mechanismJobs());

    ASSERT_EQ(snapshots.size(), core::allMechanisms().size());
    const Progress &last = engine.progress();
    EXPECT_EQ(last.queued, 5);
    EXPECT_EQ(last.done, 5);
    EXPECT_EQ(last.running, 0);
    EXPECT_EQ(last.cacheHits, 0);
    EXPECT_GT(last.simEvents, 0u);
    EXPECT_GE(last.elapsedSec, 0.0);
    // done is monotone in hook order (the hook is serialized).
    for (std::size_t i = 1; i < snapshots.size(); ++i)
        EXPECT_GT(snapshots[i].done, snapshots[i - 1].done);
}

TEST(SweepEngine, WarmCacheSkipsEverySimulation)
{
    ResultCache cache;
    EngineOptions opts;
    opts.jobs = 2;
    opts.cache = &cache;

    SweepEngine engine(opts);
    const auto cold = engine.run(mechanismJobs("stream/t=1"));
    EXPECT_EQ(engine.progress().cacheHits, 0);
    EXPECT_EQ(cache.size(), core::allMechanisms().size());

    const auto warm = engine.run(mechanismJobs("stream/t=1"));
    EXPECT_EQ(engine.progress().cacheHits, 5);
    EXPECT_EQ(engine.progress().done, 5);
    // Cache hits execute zero simulated events.
    EXPECT_EQ(engine.progress().simEvents, 0u);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
        expectIdentical(cold[i], warm[i]);
}

TEST(SweepEngine, UncachedJobsRunEvenWithCacheConfigured)
{
    ResultCache cache;
    EngineOptions opts;
    opts.cache = &cache;
    SweepEngine engine(opts);
    engine.run(mechanismJobs("")); // empty appKey: never cached
    engine.run(mechanismJobs(""));
    EXPECT_EQ(engine.progress().cacheHits, 0);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(Experiments, SweepThroughEngineMatchesLegacySerial)
{
    // runAllMechanisms with default options (serial) and with a
    // 4-thread engine must agree bit-for-bit.
    const MachineConfig base;
    const std::vector<Mechanism> mechs{Mechanism::SharedMemory,
                                       Mechanism::MpInterrupt,
                                       Mechanism::BulkTransfer};
    const auto serial = core::runAllMechanisms(tinyStream(), base, mechs);
    const auto parallel = core::runAllMechanisms(
        tinyStream(), base, mechs, withJobs(4));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(Experiments, BisectionSweepThroughEngineKeepsShape)
{
    const MachineConfig base;
    ResultCache cache;
    EngineOptions opts;
    opts.jobs = 3;
    opts.cache = &cache;
    opts.appKey = "stream/t=1";
    const auto series = core::bisectionSweep(
        tinyStream(), base,
        {Mechanism::SharedMemory, Mechanism::MpInterrupt}, {18.0, 9.0},
        64, opts);
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].mech, Mechanism::SharedMemory);
    ASSERT_EQ(series[0].points.size(), 2u);
    EXPECT_EQ(series[0].points[0].x, 18.0);
    EXPECT_EQ(series[0].points[1].x, 9.0);
    EXPECT_EQ(cache.size(), 4u);

    // Warm rerun: identical series, all four runs skipped.
    const auto again = core::bisectionSweep(
        tinyStream(), base,
        {Mechanism::SharedMemory, Mechanism::MpInterrupt}, {18.0, 9.0},
        64, opts);
    EXPECT_EQ(cache.hits(), 4u);
    for (std::size_t s = 0; s < series.size(); ++s)
        for (std::size_t i = 0; i < series[s].points.size(); ++i)
            expectIdentical(series[s].points[i].result,
                            again[s].points[i].result);
}

TEST(Experiments, IdealLatencySweepThroughEngineKeepsMpFlat)
{
    const MachineConfig base;
    const auto series = core::idealLatencySweep(
        tinyStream(), base,
        {Mechanism::SharedMemory, Mechanism::MpInterrupt},
        {20.0, 200.0}, withJobs(4));
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[1].points[0].result.runtimeCycles,
                     series[1].points[1].result.runtimeCycles);
}

} // namespace
} // namespace alewife::exp
