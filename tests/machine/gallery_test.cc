/**
 * @file
 * Tests for the Table 1/2 machine gallery and config derivation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "machine/gallery.hh"

namespace alewife {
namespace {

TEST(Gallery, ContainsThePaperMachines)
{
    const auto &g = galleryMachines();
    EXPECT_GE(g.size(), 14u);
    EXPECT_NE(galleryFind("MIT Alewife"), nullptr);
    EXPECT_NE(galleryFind("Cray T3E"), nullptr);
    EXPECT_NE(galleryFind("Stanford DASH"), nullptr);
    EXPECT_EQ(galleryFind("PDP-11"), nullptr);
}

TEST(Gallery, AlewifeRowMatchesTheDefaults)
{
    const GalleryEntry *e = galleryFind("MIT Alewife");
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->procMhz, 20.0);
    EXPECT_DOUBLE_EQ(*e->bytesPerCycle, 18.0);
    EXPECT_DOUBLE_EQ(e->localMissCycles, 11.0);
    // Table 2 derived columns (paper: 198 and 1.3).
    EXPECT_NEAR(*e->bytesPerLocalMiss(), 198.0, 0.5);
    EXPECT_NEAR(*e->netLatInLocalMisses(), 15.0 / 11.0, 0.01);
}

TEST(Gallery, MissingDataPropagatesAsNullopt)
{
    const GalleryEntry *t0 = galleryFind("Wisconsin T0");
    ASSERT_NE(t0, nullptr);
    EXPECT_FALSE(t0->bytesPerLocalMiss().has_value());
    EXPECT_TRUE(t0->netLatInLocalMisses().has_value());
}

TEST(Gallery, ToConfigMatchesBisectionAndLatency)
{
    for (const auto &e : galleryMachines()) {
        if (!e.bisectionMBps || !e.netLatencyCycles)
            continue;
        MachineConfig c = e.toConfig();
        c.validate();
        EXPECT_NEAR(c.bisectionMBps(), *e.bisectionMBps, 0.5)
            << e.name;
        const double lat = c.onewayLatencyCycles(
            24, static_cast<int>(c.averageHops() + 0.5));
        // The fit cannot beat the packet's own serialization time on
        // machines whose quoted latency is below it (Intel Delta's
        // 0.68 B/cycle links serialize 24 B in ~36 cycles); otherwise
        // it should land within ~10% of the quoted latency.
        const double ser = 24.0 / c.linkBytesPerCycle();
        const double expect =
            std::max(*e.netLatencyCycles, ser + 1.0);
        EXPECT_NEAR(lat, expect, 0.10 * expect + 2.0) << e.name;
    }
}

TEST(Config, ValidationCatchesBadSetups)
{
    MachineConfig c;
    c.meshX = 0;
    EXPECT_DEATH(c.validate(), "mesh");

    MachineConfig c2;
    c2.lineBytes = 12;
    EXPECT_DEATH(c2.validate(), "lineBytes");

    MachineConfig c3;
    c3.cacheBytes = 1000; // not a multiple of 16
    EXPECT_DEATH(c3.validate(), "cacheBytes");

    // A direct-mapped cache needs a power-of-two set count; the check
    // names the knob instead of leaving it to the first fill.
    for (std::uint32_t bad : {0u, 48u * 1024u}) {
        MachineConfig c4;
        c4.cacheBytes = bad;
        EXPECT_DEATH(c4.validate(), "cacheBytes / lineBytes") << bad;
    }
}

TEST(Config, ValidationBoundsNiRetryCyclesFromAbove)
{
    // The parked-poll tables cost 16 bytes per tick of the poll period.
    for (double bad : {1025.0, 1e7, 1e18}) {
        MachineConfig c;
        c.niRetryCycles = bad;
        EXPECT_DEATH(c.validate(), "niRetryCycles must be at most 1024")
            << bad;
    }
    for (double ok : {16.0, 24.0, 1024.0}) {
        MachineConfig c;
        c.niRetryCycles = ok;
        c.validate();
    }
}

TEST(Config, ValidationRejectsAnUnusableNiRetryCycles)
{
    // The NI poll period must be a finite value that rounds to at least
    // one tick; the check runs before the double becomes a Tick.
    for (double bad : {0.0, 0.004, -1.0, std::nan("")}) {
        MachineConfig c;
        c.niRetryCycles = bad;
        EXPECT_DEATH(c.validate(), "niRetryCycles") << bad;
    }
    MachineConfig ok;
    ok.niRetryCycles = 0.005; // rounds to one tick
    ok.validate();
}

TEST(Config, DerivedQuantities)
{
    MachineConfig c;
    EXPECT_EQ(c.nodes(), 32);
    EXPECT_DOUBLE_EQ(c.linkBytesPerCycle(), 45.0 / 20.0);
    EXPECT_DOUBLE_EQ(c.bisectionBytesPerCycle(), 8 * 45.0 / 20.0);
    EXPECT_EQ(c.wordsPerLine(), 2u);
    EXPECT_GT(c.averageHops(), 3.0);
    EXPECT_LT(c.averageHops(), 5.0);
}

TEST(Config, IdealModeOverridesLatency)
{
    MachineConfig c;
    c.idealNet = true;
    c.idealNetLatencyCycles = 123.0;
    EXPECT_DOUBLE_EQ(c.onewayLatencyCycles(24, 5), 123.0);
}

} // namespace
} // namespace alewife
