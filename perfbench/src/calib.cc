/**
 * @file
 * Figure-3 calibration probes: the eight miss penalties of the paper's
 * cost table, measured the way bench/fig03_miss_penalties measures
 * them, scored against the published values held here.
 */

#include "workloads.hh"

#include <cmath>

#include "machine/machine.hh"

namespace perfbench {

namespace {

struct Probe
{
    Addr a = 0;
    double cycles = 0.0;
    int warm = -1;
    int sharers = 0;
};

/** Node 0 reads a line homed at @p home, optionally dirty at
 *  @p warmWriter or shared by @p sharers other nodes. */
double
measureRead(NodeId home, int warmWriter, int sharers)
{
    Machine m(MachineConfig{}, proc::SyncStyle::SharedMemory,
              msg::RecvMode::Interrupt);
    Probe pr;
    pr.a = m.mem().alloc(2, mem::HomePolicy::Fixed, home);
    pr.warm = warmWriter;
    pr.sharers = sharers;
    auto prog = [&pr](proc::Ctx &ctx) -> sim::Thread {
        if (ctx.self() == pr.warm) {
            co_await ctx.writeD(pr.a, 1.0);
        } else if (ctx.self() >= 2 && ctx.self() < 2 + pr.sharers) {
            co_await ctx.compute(100.0 * ctx.self());
            co_await ctx.read(pr.a);
        } else if (ctx.self() == 0) {
            co_await ctx.compute(9000);
            const Tick t0 = ctx.proc().localNow();
            co_await ctx.read(pr.a);
            pr.cycles = ticksToCycles(ctx.proc().localNow() - t0);
        }
        co_return;
    };
    m.run(prog);
    return pr.cycles;
}

/** Node 0 writes a line homed at @p home that @p sharers nodes read. */
double
measureWrite(NodeId home, int sharers)
{
    Machine m(MachineConfig{}, proc::SyncStyle::SharedMemory,
              msg::RecvMode::Interrupt);
    Probe pr;
    pr.a = m.mem().alloc(2, mem::HomePolicy::Fixed, home);
    pr.sharers = sharers;
    auto prog = [&pr](proc::Ctx &ctx) -> sim::Thread {
        if (ctx.self() >= 2 && ctx.self() < 2 + pr.sharers) {
            co_await ctx.read(pr.a);
        } else if (ctx.self() == 0) {
            co_await ctx.compute(9000);
            const Tick t0 = ctx.proc().localNow();
            co_await ctx.writeD(pr.a, 2.0);
            pr.cycles = ticksToCycles(ctx.proc().localNow() - t0);
        }
        co_return;
    };
    m.run(prog);
    return pr.cycles;
}

} // namespace

double
CalibRow::errPct() const
{
    if (measured >= paperLo && measured <= paperHi)
        return 0.0;
    const double edge = measured < paperLo ? paperLo : paperHi;
    return 100.0 * std::abs(measured - edge) / edge;
}

std::vector<CalibRow>
calibrate()
{
    // Paper values: Figure 3 of the source paper (a range where the
    // paper gives one).
    return {
        {"local read miss", measureRead(0, -1, 0), 11, 11},
        {"remote read miss, clean", measureRead(1, -1, 0), 38, 42},
        {"remote read miss, dirty", measureRead(1, 5, 0), 63, 63},
        {"remote write miss, unshared", measureWrite(1, 0), 38, 43},
        {"remote write miss, 2 parties", measureWrite(1, 1), 66, 66},
        {"remote write miss, 3 parties", measureWrite(1, 2), 84, 84},
        {"LimitLESS read, 11 sharers", measureRead(1, -1, 11), 425, 425},
        {"LimitLESS write, 11 sharers", measureWrite(1, 11), 707, 707},
    };
}

} // namespace perfbench
