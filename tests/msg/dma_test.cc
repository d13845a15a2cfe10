/**
 * @file
 * Tests for the DMA bulk-transfer costs: the software gather/scatter
 * charge (Ctx::chargeCopy), the sender's descriptor setup
 * (Ctx::sendBulk) and the alignment padding on the wire
 * (NetIface::makePacket).
 */

#include <gtest/gtest.h>

#include <vector>

#include "../test_util.hh"

namespace alewife {
namespace {

using proc::Ctx;
using test::smallConfig;

/** Message-overhead cycles node 0 pays to copy @p words words. */
double
copyCycles(const MachineConfig &cfg, std::uint64_t words)
{
    Machine m(cfg, proc::SyncStyle::MessagePassing,
              msg::RecvMode::Interrupt);
    auto prog = [words](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0)
            co_await ctx.chargeCopy(words);
        co_return;
    };
    m.run(prog);
    return ticksToCycles(m.procAt(0).breakdown().get(TimeCat::MsgOverhead));
}

struct BulkCost
{
    std::uint64_t dataBytes;  ///< body bytes on the wire
    double senderCycles;      ///< node 0's message overhead
};

/** Send one bulk message of @p words words from node 0 to node 2. */
BulkCost
sendOneBulk(const MachineConfig &cfg, std::uint64_t words)
{
    Machine m(cfg, proc::SyncStyle::MessagePassing,
              msg::RecvMode::Interrupt);
    std::vector<std::uint64_t> got;
    const msg::HandlerId h = m.handlers().add(
        [&got](msg::HandlerEnv &env) { got = env.msg().body; });
    auto prog = [h, words](Ctx &ctx) -> sim::Thread {
        if (ctx.self() == 0) {
            std::vector<std::uint64_t> body(words, 1);
            co_await ctx.sendBulk(2, h, {}, body);
        }
        co_return;
    };
    m.run(prog);
    EXPECT_EQ(got.size(), words);
    EXPECT_EQ(m.counters().dmaTransfers, 1u);
    return {m.volume().get(VolCat::Data),
            ticksToCycles(m.procAt(0).breakdown().get(TimeCat::MsgOverhead))};
}

TEST(DmaCostModel, GatherScalesWithLines)
{
    // 60 cycles per 16-byte line; both the gather before a send and the
    // scatter after a receive are charged through chargeCopy.
    const MachineConfig cfg = smallConfig();
    EXPECT_NEAR(copyCycles(cfg, 2), 60.0, 0.01);  // one line
    EXPECT_NEAR(copyCycles(cfg, 4), 120.0, 0.01); // two lines
    EXPECT_NEAR(copyCycles(cfg, 1), 30.0, 0.01);  // half line
}

TEST(DmaCostModel, SetupComesFromConfig)
{
    MachineConfig cfg = smallConfig();
    cfg.dmaSetupCycles = 35.0;
    EXPECT_NEAR(sendOneBulk(cfg, 2).senderCycles, cfg.amSendCycles + 35.0,
                0.01);
}

TEST(DmaCostModel, PaddingRoundsToAlignment)
{
    MachineConfig cfg = smallConfig(); // 8-byte alignment
    EXPECT_EQ(sendOneBulk(cfg, 1).dataBytes, 8u);
    EXPECT_EQ(sendOneBulk(cfg, 3).dataBytes, 24u);

    cfg.dmaAlignBytes = 16;
    EXPECT_EQ(sendOneBulk(cfg, 1).dataBytes, 16u);
    EXPECT_EQ(sendOneBulk(cfg, 2).dataBytes, 16u);
    EXPECT_EQ(sendOneBulk(cfg, 3).dataBytes, 32u);
}

} // namespace
} // namespace alewife
