/**
 * @file
 * Tests for the invariant-audit subsystem: clean audited runs across
 * every shared-memory app, named-invariant detection of deliberately
 * injected protocol bugs, schedule-perturbation determinism, and the
 * EventQueue tie-break contract.
 */

#include <gtest/gtest.h>

#include "apps/stream.hh"
#include "apps/stress.hh"
#include "check/auditor.hh"
#include "core/runner.hh"
#include "sim/event_queue.hh"

namespace alewife {
namespace {

using check::InvariantAuditor;
using check::PerturbConfig;
using core::Mechanism;
using core::RunSpec;

apps::Stress::Params
tinyStress(std::uint64_t seed = 1)
{
    apps::Stress::Params p;
    p.counters = 4;
    p.opsPerNode = 80;
    p.nprocs = 16;
    p.seed = seed;
    return p;
}

RunSpec
tinySpec(Mechanism mech = Mechanism::SharedMemory)
{
    RunSpec spec;
    spec.machine.meshX = 4;
    spec.machine.meshY = 4;
    spec.mechanism = mech;
    return spec;
}

TEST(Auditor, CleanOnStressRun)
{
    apps::Stress app(tinyStress());
    InvariantAuditor auditor(
        {.abortOnViolation = false, .maxViolations = 8});
    const auto r = core::runApp(app, tinySpec(), true, &auditor);
    EXPECT_TRUE(r.verified);
    for (const auto &v : auditor.violations())
        ADD_FAILURE() << v.invariant << ": " << v.detail;
    EXPECT_TRUE(auditor.clean());
    // The workload really exercised the protocol.
    EXPECT_GT(auditor.messagesSeen(coh::MsgType::Inv), 0u);
    EXPECT_GT(auditor.messagesSeen(coh::MsgType::GetX), 0u);
}

TEST(Auditor, CleanOnStressRunWithPrefetch)
{
    apps::Stress app(tinyStress(7));
    InvariantAuditor auditor(
        {.abortOnViolation = false, .maxViolations = 8});
    const auto r = core::runApp(
        app, tinySpec(Mechanism::SharedMemoryPrefetch), true, &auditor);
    EXPECT_TRUE(r.verified);
    for (const auto &v : auditor.violations())
        ADD_FAILURE() << v.invariant << ": " << v.detail;
    EXPECT_TRUE(auditor.clean());
}

TEST(Auditor, CleanOnStreamViaSpecAuditFlag)
{
    // spec.audit = true attaches an internal aborting auditor; the run
    // completing at all is the assertion.
    apps::Stream::Params sp;
    sp.valuesPerIter = 16;
    sp.iters = 2;
    sp.nprocs = 16;
    apps::Stream app(sp);
    RunSpec spec = tinySpec();
    spec.audit = true;
    const auto r = core::runApp(app, spec);
    EXPECT_TRUE(r.verified);
}

TEST(Auditor, CleanUnderPerturbation)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        apps::Stress app(tinyStress());
        InvariantAuditor auditor(
            {.abortOnViolation = false, .maxViolations = 8});
        RunSpec spec = tinySpec();
        spec.perturb.seed = seed;
        spec.perturb.tieBreak = true;
        spec.perturb.hopJitterFrac = 0.3;
        const auto r = core::runApp(app, spec, true, &auditor);
        EXPECT_TRUE(r.verified) << "seed " << seed;
        for (const auto &v : auditor.violations())
            ADD_FAILURE() << "seed " << seed << ": " << v.invariant
                          << ": " << v.detail;
    }
}

TEST(Auditor, PerturbedRunsAreSeedDeterministic)
{
    auto once = [](std::uint64_t seed) {
        apps::Stress app(tinyStress());
        RunSpec spec = tinySpec();
        spec.perturb.seed = seed;
        spec.perturb.tieBreak = true;
        spec.perturb.hopJitterFrac = 0.2;
        return core::runApp(app, spec);
    };
    const auto a = once(42);
    const auto b = once(42);
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.checksum, b.checksum);
    // A different seed should (for this workload) change the schedule.
    const auto c = once(43);
    EXPECT_NE(a.simEvents + a.runtimeCycles,
              c.simEvents + c.runtimeCycles);
}

TEST(Auditor, CatchesDroppedInvAck)
{
    // A node swallowing one InvAck breaks inv-ack conservation; the
    // aborting auditor must panic naming the invariant.
    auto run = []() {
        apps::Stress app(tinyStress());
        Machine m(tinySpec().machine, proc::SyncStyle::SharedMemory,
                  msg::RecvMode::Polling);
        InvariantAuditor auditor; // aborting mode
        auditor.attach(m);
        for (int i = 0; i < m.nodes(); ++i) {
            coh::CoherenceController::DebugFaults f;
            f.dropInvAck = true;
            m.cohAt(i).debugInjectFaults(f);
        }
        app.setup(m, Mechanism::SharedMemory);
        m.run([&app](proc::Ctx &ctx) { return app.program(ctx); });
    };
    EXPECT_DEATH(run(), "inv-ack-conservation");
}

TEST(Auditor, CatchesSkippedInvalidate)
{
    // A cache acking an Inv without invalidating leaves a stale copy;
    // directory/cache agreement must flag it at quiescence.
    apps::Stress app(tinyStress());
    Machine m(tinySpec().machine, proc::SyncStyle::SharedMemory,
              msg::RecvMode::Polling);
    InvariantAuditor auditor(
        {.abortOnViolation = false, .maxViolations = 4});
    auditor.attach(m);
    for (int i = 0; i < m.nodes(); ++i) {
        coh::CoherenceController::DebugFaults f;
        f.skipInvalidate = true;
        m.cohAt(i).debugInjectFaults(f);
    }
    app.setup(m, Mechanism::SharedMemory);
    m.run([&app](proc::Ctx &ctx) { return app.program(ctx); });
    auditor.finalize();
    ASSERT_FALSE(auditor.clean());
    bool named = false;
    for (const auto &v : auditor.violations()) {
        if (v.invariant == "dir-cache-agreement"
            || v.invariant == "write-serialization"
            || v.invariant == "modified-single-owner")
            named = true;
    }
    EXPECT_TRUE(named) << "first: " << auditor.violations()[0].invariant
                       << ": " << auditor.violations()[0].detail;
}

TEST(EventQueue, TieBreakKeepsImmediateEventFifoContract)
{
    // The documented contract: an event scheduled for `now` runs after
    // every already-queued same-tick event, and same-tick immediate
    // events run in schedule order. Tie-breaking must preserve both.
    EventQueue eq;
    eq.setTieBreak(123);
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.schedule(eq.now(), [&] { order.push_back(2); });
        eq.schedule(eq.now(), [&] { order.push_back(3); });
    });
    eq.schedule(5, [&] { order.push_back(1); });
    while (eq.step()) {
    }
    // 0 and 1 were both scheduled for tick 5 before execution began --
    // tie-break may reorder them -- but both immediates (2, 3) must run
    // after them and in FIFO order.
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 3);
}

TEST(EventQueue, TieBreakSeedsAreDeterministic)
{
    auto run = [](std::uint64_t seed) {
        EventQueue eq;
        eq.setTieBreak(seed);
        std::vector<int> order;
        for (int i = 0; i < 16; ++i)
            eq.schedule(10, [&order, i] { order.push_back(i); });
        while (eq.step()) {
        }
        return order;
    };
    EXPECT_EQ(run(9), run(9));
    EXPECT_NE(run(9), run(10)); // 16! orderings; collision ~impossible
}

} // namespace
} // namespace alewife
