/**
 * @file
 * Tests for the bisection cross-traffic injectors.
 */

#include <gtest/gtest.h>

#include "net/cross_traffic.hh"

namespace alewife::net {
namespace {

MachineConfig
testConfig()
{
    MachineConfig c;
    c.meshX = 8;
    c.meshY = 4;
    return c;
}

TEST(CrossTraffic, InjectsAtConfiguredRate)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    for (int i = 0; i < c.nodes(); ++i)
        mesh.setSink(i, [](Packet &) { return true; });

    CrossTrafficConfig cc;
    cc.bytesPerCycle = 8.0;
    cc.messageBytes = 64;
    CrossTraffic ct(eq, mesh, cc);
    ct.start();

    const Tick horizon = cyclesToTicks(std::uint64_t(10000));
    eq.runUntil(horizon);
    ct.stop();
    eq.run();

    // 8 bytes/cycle over 10000 cycles = 80000 bytes (within a period).
    EXPECT_NEAR(static_cast<double>(ct.bytesInjected()), 80000.0,
                8.0 * 64 * 2);
}

TEST(CrossTraffic, AllTrafficCrossesBisection)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    for (int i = 0; i < c.nodes(); ++i)
        mesh.setSink(i, [](Packet &) { return true; });

    CrossTrafficConfig cc;
    cc.bytesPerCycle = 4.0;
    CrossTraffic ct(eq, mesh, cc);
    ct.start();
    eq.runUntil(cyclesToTicks(std::uint64_t(2000)));
    ct.stop();
    eq.run();

    EXPECT_EQ(mesh.bisectionBytes(), ct.bytesInjected());
}

TEST(CrossTraffic, EffectiveBisectionSubtracts)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    CrossTrafficConfig cc;
    cc.bytesPerCycle = 5.0;
    CrossTraffic ct(eq, mesh, cc);
    EXPECT_NEAR(ct.effectiveBisection(),
                c.bisectionBytesPerCycle() - 5.0, 1e-9);
}

TEST(CrossTraffic, ZeroRateIsInert)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    CrossTrafficConfig cc;
    cc.bytesPerCycle = 0.0;
    CrossTraffic ct(eq, mesh, cc);
    ct.start();
    eq.run();
    EXPECT_EQ(ct.bytesInjected(), 0u);
}

TEST(CrossTraffic, StopHaltsInjection)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    for (int i = 0; i < c.nodes(); ++i)
        mesh.setSink(i, [](Packet &) { return true; });
    CrossTrafficConfig cc;
    cc.bytesPerCycle = 8.0;
    CrossTraffic ct(eq, mesh, cc);
    ct.start();
    eq.runUntil(cyclesToTicks(std::uint64_t(1000)));
    ct.stop();
    const std::uint64_t at_stop = ct.bytesInjected();
    eq.run();
    EXPECT_EQ(ct.bytesInjected(), at_stop);
}

// The rejections below happen at construction, before any event runs.

TEST(CrossTrafficDeath, RateAtOrAboveNativeBisectionIsRejected)
{
    EventQueue eq;
    MachineConfig c = testConfig(); // native bisection: 18 bytes/cycle
    Mesh mesh(eq, c);
    for (double rate : {c.bisectionBytesPerCycle(), 21.0}) {
        CrossTrafficConfig cc;
        cc.bytesPerCycle = rate;
        EXPECT_EXIT({ CrossTraffic ct(eq, mesh, cc); },
                    ::testing::ExitedWithCode(1),
                    "saturates the native bisection of 18 bytes/cycle")
            << rate;
    }
}

TEST(CrossTrafficDeath, ZeroByteMessagesAreRejected)
{
    EventQueue eq;
    MachineConfig c = testConfig();
    Mesh mesh(eq, c);
    CrossTrafficConfig cc;
    cc.bytesPerCycle = 4.0;
    cc.messageBytes = 0;
    EXPECT_EXIT({ CrossTraffic ct(eq, mesh, cc); },
                ::testing::ExitedWithCode(1),
                "cross-traffic messages of 0 bytes");
}

} // namespace
} // namespace alewife::net
