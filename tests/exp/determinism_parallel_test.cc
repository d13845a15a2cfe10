/**
 * @file
 * Determinism regression for concurrent simulations: the same RunSpec
 * must produce bit-identical results run serially, run twice, and run
 * through the sweep engine with jobs=4 — while other simulations
 * execute concurrently on sibling worker threads. Any divergence means
 * hidden shared mutable state between Machine instances.
 */

#include <gtest/gtest.h>

#include "apps/em3d.hh"
#include "core/runner.hh"
#include "exp/sweep_engine.hh"

namespace alewife::exp {
namespace {

using core::Mechanism;

core::AppFactory
smallEm3d()
{
    apps::Em3d::Params p;
    p.graph.nodesPerSide = 320;
    p.graph.degree = 5;
    p.iters = 2;
    return apps::Em3d::factory(p);
}

EngineOptions
withJobs(int n)
{
    EngineOptions o;
    o.jobs = n;
    return o;
}

core::RunSpec
spec(Mechanism m, double cross = 0.0)
{
    core::RunSpec s;
    s.mechanism = m;
    s.crossTraffic.bytesPerCycle = cross;
    return s;
}

void
expectBitIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.reference, b.reference);
    EXPECT_EQ(a.simEvents, b.simEvents);
    for (std::size_t i = 0; i < a.breakdown.ticks.size(); ++i)
        EXPECT_EQ(a.breakdown.ticks[i], b.breakdown.ticks[i]);
    for (std::size_t i = 0; i < a.volume.bytes.size(); ++i)
        EXPECT_EQ(a.volume.bytes[i], b.volume.bytes[i]);
    EXPECT_EQ(a.counters.packetsInjected, b.counters.packetsInjected);
    EXPECT_EQ(a.counters.packetsDelivered, b.counters.packetsDelivered);
    EXPECT_EQ(a.counters.cacheHits, b.counters.cacheHits);
    EXPECT_EQ(a.counters.cacheMisses, b.counters.cacheMisses);
    EXPECT_EQ(a.counters.remoteMisses, b.counters.remoteMisses);
    EXPECT_EQ(a.counters.invalidationsSent,
              b.counters.invalidationsSent);
    EXPECT_EQ(a.counters.interruptsTaken, b.counters.interruptsTaken);
    EXPECT_EQ(a.counters.barrierEpisodes, b.counters.barrierEpisodes);
    EXPECT_EQ(a.counters.lockAcquires, b.counters.lockAcquires);
}

TEST(ParallelDeterminism, SameSpecTwiceInOneParallelBatch)
{
    // Duplicate every job: slots i and i+n carry identical specs but
    // run on different workers at different times. Their results must
    // match each other and the serial baseline exactly.
    std::vector<Job> jobs;
    const Mechanism mechs[] = {Mechanism::SharedMemory,
                               Mechanism::SharedMemoryPrefetch,
                               Mechanism::MpInterrupt,
                               Mechanism::MpPolling,
                               Mechanism::BulkTransfer};
    for (int round = 0; round < 2; ++round)
        for (Mechanism m : mechs)
            jobs.push_back(Job{smallEm3d(), spec(m), ""});

    SweepEngine engine(withJobs(4));
    const auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), 10u);

    const std::size_t n = std::size(mechs);
    for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(core::mechanismShortName(mechs[i]));
        expectBitIdentical(results[i], results[i + n]);
        EXPECT_TRUE(results[i].verified);

        // And against a fresh serial run outside the engine.
        const auto serial =
            core::runApp(smallEm3d(), spec(mechs[i]));
        expectBitIdentical(results[i], serial);
    }
}

TEST(ParallelDeterminism, CrossTrafficRunsAgreeUnderConcurrency)
{
    // Cross-traffic injection exercises the RNG-free periodic injector
    // and the mesh contention paths; concurrency must not perturb it.
    std::vector<Job> jobs;
    for (int round = 0; round < 2; ++round) {
        jobs.push_back(
            Job{smallEm3d(), spec(Mechanism::SharedMemory, 10.0), ""});
        jobs.push_back(
            Job{smallEm3d(), spec(Mechanism::MpInterrupt, 10.0), ""});
    }
    SweepEngine engine(withJobs(4));
    const auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), 4u);
    expectBitIdentical(results[0], results[2]);
    expectBitIdentical(results[1], results[3]);
}

} // namespace
} // namespace alewife::exp
