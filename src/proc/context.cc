#include "proc/context.hh"

#include "proc/sync.hh"
#include "sim/logging.hh"

namespace alewife::proc {

Ctx::Ctx(NodeId self, int nprocs, const MachineConfig &cfg, Proc &proc,
         coh::CoherenceController &coh, msg::NetIface &ni, SyncSystem &sync,
         MachineCounters &counters)
    : self_(self), nprocs_(nprocs), cfg_(cfg), proc_(proc), coh_(coh),
      ni_(ni), sync_(sync), counters_(counters)
{
}

ComputeAwait
Ctx::compute(double cycles)
{
    return ComputeAwait{proc_, cycles, TimeCat::Compute};
}

ComputeAwait
Ctx::computeFlops(std::uint64_t n)
{
    return ComputeAwait{proc_, cfg_.cyclesPerFlop * static_cast<double>(n),
                        TimeCat::Compute};
}

ComputeAwait
Ctx::computeFlopsSP(std::uint64_t n)
{
    return ComputeAwait{proc_,
                        cfg_.cyclesPerFlopSP * static_cast<double>(n),
                        TimeCat::Compute};
}

ComputeAwait
Ctx::chargeCopy(std::uint64_t words)
{
    const double lines = static_cast<double>(words * 8)
                         / static_cast<double>(cfg_.lineBytes);
    return ComputeAwait{proc_, lines * cfg_.gatherScatterPerLineCycles,
                        TimeCat::MsgOverhead};
}

MemAwait
Ctx::read(Addr a, TimeCat cat)
{
    MemAwait aw{proc_};
    std::uint64_t v = 0;
    if (!proc_.needsSync() && coh_.tryFastRead(a, v)) {
        aw.fast = true;
        aw.value = v;
        return aw;
    }
    if (proc_.needsSync() && coh_.tryFastRead(a, v)) {
        // Hit, but the node has run too far ahead: complete the value
        // now and let the op resolve at the (already reached) time.
        auto op = std::make_shared<OpState>();
        op->waitCat = cat;
        op->startLocal = proc_.localNow();
        op->stolenAtStart = proc_.stolenTicks();
        proc_.completeOp(op, v);
        aw.op = std::move(op);
        // Force a sync suspension via the op path.
        aw.fast = false;
        return aw;
    }
    aw.op = coh_.startRead(a, cat);
    return aw;
}

MemAwait
Ctx::write(Addr a, std::uint64_t v, TimeCat cat)
{
    MemAwait aw{proc_};
    if (!proc_.needsSync() && coh_.tryFastWrite(a, v)) {
        aw.fast = true;
        aw.value = v;
        return aw;
    }
    if (proc_.needsSync() && coh_.tryFastWrite(a, v)) {
        auto op = std::make_shared<OpState>();
        op->waitCat = cat;
        op->startLocal = proc_.localNow();
        op->stolenAtStart = proc_.stolenTicks();
        proc_.completeOp(op, v);
        aw.op = std::move(op);
        return aw;
    }
    aw.op = coh_.startWrite(a, v, cat);
    return aw;
}

MemAwait
Ctx::rmw(Addr a, std::function<std::uint64_t(std::uint64_t)> fn,
         TimeCat cat)
{
    MemAwait aw{proc_};
    // rmw has no pure fast path helper on the controller; do it here.
    if (coh_.tryFastRmw(a, fn, aw.value)) {
        if (!proc_.needsSync()) {
            aw.fast = true;
            return aw;
        }
        auto op = std::make_shared<OpState>();
        op->waitCat = cat;
        op->startLocal = proc_.localNow();
        op->stolenAtStart = proc_.stolenTicks();
        proc_.completeOp(op, aw.value);
        aw.op = std::move(op);
        return aw;
    }
    aw.op = coh_.startRmw(a, std::move(fn), cat);
    return aw;
}

sim::SubTask<void>
Ctx::writeNB(Addr a, std::uint64_t v, TimeCat cat)
{
    // Window full: retire the oldest write first (FIFO, like a small
    // hardware write buffer).
    while (static_cast<int>(pendingWrites_.size())
           >= cfg_.maxOutstandingWrites) {
        auto oldest = pendingWrites_.front();
        pendingWrites_.erase(pendingWrites_.begin());
        if (!oldest->done)
            co_await Op(proc_, oldest);
    }
    // Completed entries can be reaped without waiting.
    std::erase_if(pendingWrites_,
                  [](const auto &op) { return op->done; });

    std::uint64_t dummy = v;
    if (coh_.tryFastWrite(a, v)) {
        (void)dummy;
        co_return;
    }
    pendingWrites_.push_back(coh_.startWrite(a, v, cat));
}

sim::SubTask<void>
Ctx::fence(TimeCat cat)
{
    (void)cat;
    while (!pendingWrites_.empty()) {
        auto op = pendingWrites_.back();
        pendingWrites_.pop_back();
        if (!op->done)
            co_await Op(proc_, op);
    }
}

sim::SubTask<std::uint64_t>
Ctx::spinUntil(Addr a, std::function<bool(std::uint64_t)> pred,
               TimeCat cat)
{
    for (;;) {
        // Capture the epoch before reading so an invalidation landing
        // between fill and test is never missed.
        const std::uint64_t e = coh_.lineEpoch(a);
        const std::uint64_t v = co_await read(a, cat);
        if (pred(v))
            co_return v;
        co_await CondAwait{
            proc_, [this, a, e]() { return coh_.lineEpoch(a) != e; }, cat};
    }
}

sim::SubTask<void>
Ctx::lock(Addr a)
{
    ++counters_.lockAcquires;
    for (;;) {
        const std::uint64_t old = co_await rmw(
            a, [](std::uint64_t) { return std::uint64_t(1); },
            TimeCat::Sync);
        if (old == 0)
            co_return;
        ++counters_.lockRetries;
        co_await spinUntil(
            a, [](std::uint64_t v) { return v == 0; }, TimeCat::Sync);
    }
}

sim::SubTask<void>
Ctx::unlock(Addr a)
{
    co_await write(a, 0, TimeCat::Sync);
}

sim::SubTask<void>
Ctx::send(NodeId dst, msg::HandlerId h, std::span<const std::uint64_t> args)
{
    proc_.advance(TimeCat::MsgOverhead,
                  cfg_.amSendCycles
                      + cfg_.amSendPerWordCycles
                            * static_cast<double>(args.size()));
    co_await SyncAwait{proc_};
    const Tick waited = ni_.inject(dst, h, args, {}, false,
                                   proc_.eventQueue().now());
    // A small output queue absorbs short injection delays; anything
    // beyond stalls the processor on the network interface.
    const Tick slack = cyclesToTicks(32.0);
    if (waited > slack) {
        co_await ComputeAwait{proc_,
                              ticksToCycles(waited - slack),
                              TimeCat::MemWait};
    }
}

sim::SubTask<void>
Ctx::sendBulk(NodeId dst, msg::HandlerId h,
              std::span<const std::uint64_t> args,
              std::span<const std::uint64_t> body)
{
    proc_.advance(TimeCat::MsgOverhead,
                  cfg_.amSendCycles + cfg_.dmaSetupCycles
                      + cfg_.amSendPerWordCycles
                            * static_cast<double>(args.size()));
    co_await SyncAwait{proc_};
    const Tick waited = ni_.inject(dst, h, args, body, true,
                                   proc_.eventQueue().now());
    const Tick slack = cyclesToTicks(32.0);
    if (waited > slack) {
        co_await ComputeAwait{proc_,
                              ticksToCycles(waited - slack),
                              TimeCat::MemWait};
    }
}

sim::SubTask<int>
Ctx::poll()
{
    proc_.advance(TimeCat::MsgOverhead, cfg_.pollEmptyCycles);
    co_await SyncAwait{proc_};
    co_return ni_.pollDrain();
}

sim::SubTask<void>
Ctx::pollPoint()
{
    if (ni_.mode() != msg::RecvMode::Polling)
        co_return;
    proc_.advance(TimeCat::MsgOverhead, cfg_.pollEmptyCycles);
    if (!ni_.queueEmpty()) {
        co_await SyncAwait{proc_};
        ni_.pollDrain();
    }
}

sim::SubTask<void>
Ctx::barrier()
{
    return sync_.barrier(*this);
}

} // namespace alewife::proc
