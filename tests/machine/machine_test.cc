/**
 * @file
 * Machine-level behaviour tests: run lifecycle, architectural debug
 * reads, quiescing, and per-node wiring.
 */

#include <gtest/gtest.h>

#include "../test_util.hh"

namespace alewife {
namespace {

using proc::Ctx;
using test::smallConfig;

sim::Thread
trivialProgram(Ctx &ctx)
{
    co_await ctx.compute(10.0 * (ctx.self() + 1));
}

TEST(Machine, RunReturnsSlowestCompletion)
{
    Machine m(smallConfig(), proc::SyncStyle::SharedMemory,
              msg::RecvMode::Interrupt);
    const Tick finish = m.run(trivialProgram);
    EXPECT_NEAR(ticksToCycles(finish), 10.0 * m.nodes(), 0.5);
    EXPECT_EQ(m.finishTick(), finish);
}

TEST(Machine, BreakdownSumAggregatesAllNodes)
{
    Machine m(smallConfig(), proc::SyncStyle::SharedMemory,
              msg::RecvMode::Interrupt);
    m.run(trivialProgram);
    const TimeBreakdown sum = m.breakdownSum();
    // Sum of 10,20,...,80 cycles of compute.
    const double expect = 10.0 * m.nodes() * (m.nodes() + 1) / 2.0;
    EXPECT_NEAR(ticksToCycles(sum.get(TimeCat::Compute)), expect, 1.0);
}

sim::Thread
dirtyProgram(Ctx &ctx, Addr a)
{
    if (ctx.self() == 3)
        co_await ctx.writeD(a, 4.25);
    co_return;
}

TEST(Machine, DebugWordSeesDirtyCacheLines)
{
    Machine m(smallConfig(), proc::SyncStyle::SharedMemory,
              msg::RecvMode::Interrupt);
    const Addr a = m.mem().alloc(2, mem::HomePolicy::Fixed, 0);
    m.run([a](Ctx &ctx) { return dirtyProgram(ctx, a); });
    // The line is still Modified in node 3's cache; memory is stale,
    // but the architectural read must see the fresh value.
    EXPECT_DOUBLE_EQ(m.debugDouble(a), 4.25);
}

TEST(Machine, NodeAccessorsAreConsistent)
{
    Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
              msg::RecvMode::Polling);
    for (int i = 0; i < m.nodes(); ++i) {
        EXPECT_EQ(m.procAt(i).id(), i);
        EXPECT_EQ(m.niAt(i).mode(), msg::RecvMode::Polling);
        EXPECT_EQ(m.cacheAt(i).lineBytes(),
                  m.config().lineBytes);
    }
}

sim::Thread
deadlockProgram(Ctx &ctx, bool &flag)
{
    if (ctx.self() == 0) {
        // Waits on a flag nobody ever sets.
        co_await ctx.waitUntil([&flag]() { return flag; });
    }
    co_return;
}

TEST(MachineDeath, DeadlockIsDiagnosedNotHung)
{
    EXPECT_DEATH(
        {
            Machine m(smallConfig(), proc::SyncStyle::MessagePassing,
                      msg::RecvMode::Interrupt);
            bool flag = false;
            m.run([&flag](Ctx &ctx) {
                return deadlockProgram(ctx, flag);
            });
        },
        "deadlock");
}

TEST(MachineDeath, TickLimitAborts)
{
    EXPECT_DEATH(
        {
            Machine m(smallConfig(), proc::SyncStyle::SharedMemory,
                      msg::RecvMode::Interrupt);
            m.run([](Ctx &ctx) -> sim::Thread {
                co_await ctx.compute(1e9);
            },
                  cyclesToTicks(std::uint64_t(1000)));
        },
        "limit");
}

sim::Thread
volumeProgram(Ctx &ctx, Addr a)
{
    if (ctx.self() == 0)
        co_await ctx.read(a);
    co_return;
}

TEST(Machine, VolumeReflectsProtocolTraffic)
{
    Machine m(smallConfig(), proc::SyncStyle::SharedMemory,
              msg::RecvMode::Interrupt);
    const Addr a = m.mem().alloc(2, mem::HomePolicy::Fixed, 5);
    m.run([a](Ctx &ctx) { return volumeProgram(ctx, a); });
    // One remote GetS (16 request bytes) + one Data (8 + 16).
    EXPECT_EQ(m.volume().get(VolCat::Requests), 16u);
    EXPECT_EQ(m.volume().get(VolCat::Headers), 8u);
    EXPECT_EQ(m.volume().get(VolCat::Data), 16u);
}

TEST(MachineConfigKey, DefaultKeyIsPinned)
{
    // Every ResultCache key and snapshot config key embeds this string:
    // cache entries and job files written earlier hit and load only
    // while it stays byte-identical.
    EXPECT_EQ(
        MachineConfig{}.canonicalKey(),
        "meshX=8;meshY=4;procMhz=20;linkMBps=45;hopNs=40;"
        "netFixedNs=100;idealNet=0;idealNetLatencyCycles=15;"
        "contextSwitchCycles=14;cacheBytes=65536;lineBytes=16;"
        "cacheHitCycles=1;localMissCycles=11;dirHwPointers=5;"
        "reqIssueCycles=6;homeOccupancyCycles=6;"
        "replyConsumeCycles=6;invProcessCycles=4;"
        "limitlessTrapCycles=320;limitlessPerSharerCycles=12;"
        "threeHopForwarding=0;protoCtrlBytes=16;"
        "protoDataHdrBytes=8;amSendCycles=28;amSendPerWordCycles=6;"
        "amInterruptCycles=42;amDispatchCycles=12;"
        "amRecvPerWordCycles=5;pollEmptyCycles=4;"
        "pollInsertionGap=4;amHeaderBytes=8;amMaxWords=14;"
        "niInputQueueSlots=8;niRetryCycles=16;dmaSetupCycles=20;"
        "gatherScatterPerLineCycles=60;dmaAlignBytes=8;"
        "prefetchBufferEntries=16;prefetchMaxOutstanding=4;"
        "prefetchIssueCycles=2;prefetchBufferHitCycles=3;"
        "maxOutstandingWrites=4;cyclesPerFlop=5;cyclesPerFlopSP=3;");
}

} // namespace
} // namespace alewife
