/**
 * @file
 * Warm-start sweeps: restore-safe delta whitelist, bit-equality of an
 * early-fork warm start against a cold start under the variant config,
 * and verified completion of mid-run forks.
 */

#include <gtest/gtest.h>

#include "apps/stream.hh"
#include "ckpt/restore.hh"
#include "core/runner.hh"
#include "exp/warm_start.hh"

namespace alewife::ckpt {
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

void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.volume.total(), b.volume.total());
    EXPECT_EQ(a.counters.packetsInjected, b.counters.packetsInjected);
    EXPECT_EQ(a.counters.cacheHits, b.counters.cacheHits);
    EXPECT_TRUE(b.verified);
}

TEST(RestoreSafe, AcceptsEveryWhitelistedKnob)
{
    const MachineConfig base;
    auto ok = [&](auto mutate) {
        MachineConfig v = base;
        mutate(v);
        std::string why;
        const bool safe = restoreSafeDelta(base, v, &why);
        EXPECT_TRUE(safe) << why;
    };
    ok([](MachineConfig &v) { v.linkMBps *= 2; });
    ok([](MachineConfig &v) { v.hopNs *= 3; });
    ok([](MachineConfig &v) { v.netFixedNs += 100; });
    ok([](MachineConfig &v) { v.idealNetLatencyCycles = 400; });
    ok([](MachineConfig &v) { v.contextSwitchCycles += 5; });
    ok([](MachineConfig &v) { v.name = "renamed"; });
}

TEST(RestoreSafe, RejectsStructuralKnobs)
{
    const MachineConfig base;
    auto bad = [&](auto mutate) {
        MachineConfig v = base;
        mutate(v);
        std::string why;
        EXPECT_FALSE(restoreSafeDelta(base, v, &why));
        EXPECT_FALSE(why.empty());
    };
    bad([](MachineConfig &v) { v.meshX *= 2; });
    bad([](MachineConfig &v) { v.cacheBytes *= 2; });
    bad([](MachineConfig &v) { v.procMhz = 40; });
    bad([](MachineConfig &v) { v.idealNet = !v.idealNet; });
    // The NI poll period lays out the parked packets' phase classes.
    bad([](MachineConfig &v) { v.niRetryCycles += 7; });
}

TEST(WarmStart, EarlyForkMatchesColdStartExactly)
{
    // Fork before any network activity: the snapshot carries no state
    // the changed knob could have influenced, so the warm continuation
    // must be bit-identical to a cold run under the variant config.
    exp::WarmStartSweep sweep;
    sweep.base.mechanism = Mechanism::SharedMemory;
    sweep.forkEvents = 2;
    MachineConfig slow = sweep.base.machine;
    slow.linkMBps /= 2;
    MachineConfig fast = sweep.base.machine;
    fast.linkMBps *= 2;
    sweep.variants = {slow, fast};

    const auto results = exp::runWarmStartSweep(tinyStream(), sweep);
    ASSERT_EQ(results.size(), 3u);

    core::RunSpec coldBase = sweep.base;
    expectIdentical(core::runApp(tinyStream(), coldBase), results[0]);

    core::RunSpec coldSlow = sweep.base;
    coldSlow.machine = slow;
    expectIdentical(core::runApp(tinyStream(), coldSlow), results[1]);

    core::RunSpec coldFast = sweep.base;
    coldFast.machine = fast;
    expectIdentical(core::runApp(tinyStream(), coldFast), results[2]);
}

TEST(WarmStart, MidRunForkCompletesVerified)
{
    // A mid-run fork answers the paper's sensitivity question asked
    // mid-flight; the result legitimately differs from any cold run,
    // but must still complete and verify its numeric checksum.
    core::RunSpec probe;
    probe.mechanism = Mechanism::SharedMemory;
    const auto gold = core::runApp(tinyStream(), probe);

    exp::WarmStartSweep sweep;
    sweep.base.mechanism = Mechanism::SharedMemory;
    sweep.forkEvents = gold.simEvents / 2;
    MachineConfig v = sweep.base.machine;
    v.hopNs *= 4;
    sweep.variants = {v};

    const auto results = exp::runWarmStartSweep(tinyStream(), sweep);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[1].verified);
    // The base leg is untouched by the fork capture.
    expectIdentical(gold, results[0]);
}

TEST(WarmStartDeath, RejectsUnsafeVariant)
{
    exp::WarmStartSweep sweep;
    sweep.forkEvents = 2;
    MachineConfig v = sweep.base.machine;
    v.meshX *= 2;
    sweep.variants = {v};
    EXPECT_DEATH(exp::runWarmStartSweep(tinyStream(), sweep),
                 "restore-safe");
}

TEST(WarmStartDeath, RejectsForkPastEndOfRun)
{
    exp::WarmStartSweep sweep;
    sweep.forkEvents = ~0ULL;
    MachineConfig v = sweep.base.machine;
    v.linkMBps *= 2;
    sweep.variants = {v};
    EXPECT_DEATH(exp::runWarmStartSweep(tinyStream(), sweep),
                 "fork point");
}

} // namespace
} // namespace alewife::ckpt
