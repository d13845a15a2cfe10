/**
 * @file
 * Resume-equals-straight-run goldens: a run captured mid-flight and
 * resumed from that in-memory snapshot in a fresh machine must finish
 * bit-identical to the uninterrupted run — across workloads,
 * mechanisms and schedule perturbation (RNG streams). The resume goes
 * through WarmStartDriver with the run's own config, i.e. resume()
 * plus a config delta that changes nothing, which is the path warm
 * start takes for every variant. All golden runs execute with the
 * invariant auditor attached.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "apps/em3d.hh"
#include "apps/iccg.hh"
#include "apps/stream.hh"
#include "ckpt/driver.hh"
#include "core/runner.hh"

namespace alewife::ckpt {
namespace {

using core::Mechanism;

core::AppFactory
factoryFor(const std::string &app)
{
    if (app == "stream") {
        apps::Stream::Params p;
        p.valuesPerIter = 16;
        p.iters = 2;
        return apps::Stream::factory(p);
    }
    if (app == "em3d") {
        apps::Em3d::Params p;
        p.graph.nodesPerSide = 256;
        p.graph.degree = 4;
        p.iters = 2;
        return apps::Em3d::factory(p);
    }
    apps::Iccg::Params p;
    p.matrix.rows = 400;
    return apps::Iccg::factory(p);
}

void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.volume.total(), b.volume.total());
    EXPECT_EQ(a.counters.packetsInjected, b.counters.packetsInjected);
    EXPECT_EQ(a.counters.packetsDelivered, b.counters.packetsDelivered);
    EXPECT_EQ(a.counters.cacheHits, b.counters.cacheHits);
    EXPECT_EQ(a.counters.cacheMisses, b.counters.cacheMisses);
    for (std::size_t i = 0; i < a.breakdown.ticks.size(); ++i)
        EXPECT_EQ(a.breakdown.ticks[i], b.breakdown.ticks[i]);
    EXPECT_TRUE(b.verified);
}

// gtest prints a parameter that has no printer as its raw bytes, and
// gtest_discover_tests copies that dump into the ctest test name. The
// app name is held inline rather than as a pointer, whose value moves
// with every load address, so the name is the same on every build.
struct GoldenCase
{
    char app[15];
    Mechanism mech;
};
static_assert(std::has_unique_object_representations_v<GoldenCase>);

class ResumeGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(ResumeGolden, ResumeEqualsStraightRun)
{
    const GoldenCase c = GetParam();
    const auto factory = factoryFor(c.app);
    core::RunSpec spec;
    spec.mechanism = c.mech;
    spec.audit = true; // InvariantAuditor on for every golden run

    const auto gold = core::runApp(factory, spec);
    ASSERT_GT(gold.simEvents, 100u);

    // Fork midway; capturing must not perturb the run itself.
    ForkPointDriver fork(gold.simEvents / 2);
    const auto forked = core::runApp(factory, spec, true, nullptr, &fork);
    ASSERT_TRUE(fork.snapshot().has_value());
    expectIdentical(gold, forked);

    // Resume from the snapshot in a fresh machine: bit-identical
    // finish.
    WarmStartDriver resumeDriver(*fork.snapshot(), spec.machine);
    const auto resumed =
        core::runApp(factory, spec, true, nullptr, &resumeDriver);
    expectIdentical(gold, resumed);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ResumeGolden,
    ::testing::Values(GoldenCase{"stream", Mechanism::SharedMemory},
                      GoldenCase{"stream", Mechanism::MpInterrupt},
                      GoldenCase{"em3d", Mechanism::SharedMemory},
                      GoldenCase{"em3d", Mechanism::MpInterrupt},
                      GoldenCase{"iccg", Mechanism::SharedMemory},
                      GoldenCase{"iccg", Mechanism::MpInterrupt}),
    [](const auto &info) {
        return std::string(info.param.app) + "_"
               + (info.param.mech == Mechanism::SharedMemory ? "SM"
                                                             : "MPI");
    });

// --------------------------------------------------------------------
// RNG stream capture (satellite): the kernel tie-break stream and the
// mesh jitter stream must restore so the *subsequent* sequence is
// bit-identical — pinned end-to-end by resuming perturbed runs, whose
// schedules consume both streams continuously.
// --------------------------------------------------------------------

class ResumePerturbed : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ResumePerturbed, PerturbedRunResumesBitIdentical)
{
    const auto factory = factoryFor("stream");
    core::RunSpec spec;
    spec.audit = true;
    spec.perturb.seed = GetParam();
    spec.perturb.tieBreak = true;
    spec.perturb.hopJitterFrac = 0.2;

    const auto gold = core::runApp(factory, spec);
    ASSERT_GT(gold.simEvents, 100u);

    ForkPointDriver fork(gold.simEvents / 2);
    const auto forked = core::runApp(factory, spec, true, nullptr, &fork);
    ASSERT_TRUE(fork.snapshot().has_value());
    expectIdentical(gold, forked);

    WarmStartDriver resumeDriver(*fork.snapshot(), spec.machine);
    const auto resumed =
        core::runApp(factory, spec, true, nullptr, &resumeDriver);
    expectIdentical(gold, resumed);
}

INSTANTIATE_TEST_SUITE_P(PerturbSeeds, ResumePerturbed,
                         ::testing::Values(1u, 7u, 1234567u));

TEST(ResumeRng, DifferentSeedsActuallyDiverge)
{
    // Sanity for the suite above: the perturbed schedules depend on the
    // seed, so stream restoration is load-bearing, not vacuous.
    const auto factory = factoryFor("stream");
    core::RunSpec a;
    a.perturb.seed = 1;
    a.perturb.tieBreak = true;
    a.perturb.hopJitterFrac = 0.2;
    core::RunSpec b = a;
    b.perturb.seed = 2;
    const auto ra = core::runApp(factory, a);
    const auto rb = core::runApp(factory, b);
    EXPECT_NE(ra.runtimeCycles, rb.runtimeCycles);
}

} // namespace
} // namespace alewife::ckpt
