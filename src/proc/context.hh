/**
 * @file
 * Ctx — the programming interface node programs are written against.
 *
 * One Ctx per node wraps the processor, coherence controller, network
 * interface and synchronization system. Application variants use
 * different subsets:
 *   shared memory:    read/write/rmw/lock/spinUntil (+ prefetch*)
 *   message passing:  send/sendBulk/poll/waitUntil
 *   all:              compute/barrier
 *
 * Every operation is an awaitable; cheap operations (cache hits, short
 * compute) complete without touching the event queue.
 */

#ifndef ALEWIFE_PROC_CONTEXT_HH
#define ALEWIFE_PROC_CONTEXT_HH

#include <bit>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "coh/coherence.hh"
#include "machine/config.hh"
#include "msg/active_messages.hh"
#include "proc/processor.hh"
#include "sim/coro.hh"
#include "sim/stats.hh"

namespace alewife::proc {

class SyncSystem;

// NOTE: none of the awaitable types below may be braced-initialized
// aggregates with non-trivial members: GCC 12's coroutine lowering
// double-destroys such temporaries (verified with a minimal repro).
// Each has a user-declared constructor, which sidesteps the bug.

/** Fast-or-suspend timed advance (compute bursts, copy costs, stalls). */
struct ComputeAwait
{
    ComputeAwait(Proc &proc, double cyc, TimeCat c)
        : p(proc), cycles(cyc), cat(c)
    {
    }

    Proc &p;
    double cycles;
    TimeCat cat;
    bool fast = false;

    bool
    await_ready()
    {
        const Tick dur = cyclesToTicks(cycles);
        if (dur < cyclesToTicks(std::uint64_t(32)) && !p.needsSync()) {
            p.advance(cat, cycles);
            fast = true;
            return true;
        }
        return false;
    }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        p.suspendCompute(h, cyclesToTicks(cycles), cat);
    }

    void await_resume() const {}
};

/** Memory-access awaitable: ready on hit, suspends on miss. */
struct MemAwait
{
    explicit MemAwait(Proc &proc) : p(proc) {}

    Proc &p;
    bool fast = false;
    std::uint64_t value = 0;
    std::shared_ptr<OpState> op;

    bool await_ready() const { return fast || (op && op->done); }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        p.suspendOnOp(h, op);
    }

    std::uint64_t
    await_resume() const
    {
        return fast ? value : op->value;
    }
};

/** Suspend until global time catches up to the node's local time. */
struct SyncAwait
{
    explicit SyncAwait(Proc &proc) : p(proc) {}

    Proc &p;

    bool
    await_ready() const
    {
        return p.localNow() <= p.eventQueue().now();
    }

    void await_suspend(std::coroutine_handle<> h) const { p.suspendSync(h); }
    void await_resume() const {}
};

/** Suspend until a predicate holds (handlers must recheckCond()). */
struct CondAwait
{
    CondAwait(Proc &proc, std::function<bool()> fn, TimeCat c)
        : p(proc), pred(std::move(fn)), cat(c)
    {
    }

    Proc &p;
    std::function<bool()> pred;
    TimeCat cat;

    bool await_ready() const { return pred(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        p.suspendOnCond(h, std::move(pred), cat);
    }

    void await_resume() const {}
};

/**
 * Per-node application programming context.
 */
class Ctx
{
  public:
    Ctx(NodeId self, int nprocs, const MachineConfig &cfg, Proc &proc,
        coh::CoherenceController &coh, msg::NetIface &ni,
        SyncSystem &sync, MachineCounters &counters);

    NodeId self() const { return self_; }
    int nprocs() const { return nprocs_; }
    const MachineConfig &config() const { return cfg_; }
    Proc &proc() { return proc_; }
    msg::NetIface &ni() { return ni_; }
    MachineCounters &counters() { return counters_; }

    // ------------------------------------------------------------------
    // Compute
    // ------------------------------------------------------------------

    /** Spend @p cycles of useful computation. */
    ComputeAwait compute(double cycles);

    /** Spend @p n double-precision FLOPs of computation. */
    ComputeAwait computeFlops(std::uint64_t n);

    /** Spend @p n single-precision FLOPs of computation. */
    ComputeAwait computeFlopsSP(std::uint64_t n);

    /** Charge gather/scatter copying of @p words words (MsgOverhead). */
    ComputeAwait chargeCopy(std::uint64_t words);

    // ------------------------------------------------------------------
    // Shared memory
    // ------------------------------------------------------------------

    MemAwait read(Addr a, TimeCat cat = TimeCat::MemWait);
    MemAwait write(Addr a, std::uint64_t v, TimeCat cat = TimeCat::MemWait);
    MemAwait rmw(Addr a, std::function<std::uint64_t(std::uint64_t)> fn,
                 TimeCat cat = TimeCat::MemWait);

    /**
     * Non-blocking store (relaxed-consistency extension; Section 2 of
     * the paper names relaxed models as the other latency-tolerance
     * technique besides prefetching). The write retires in the
     * background; the issuing program continues immediately unless the
     * outstanding-write window (MachineConfig::maxOutstandingWrites)
     * is full, in which case it stalls for the oldest.
     *
     * Ordering caveat: writes issued this way are only globally
     * ordered at the next fence()/barrier(); programs relying on
     * write-then-flag idioms must fence first.
     */
    sim::SubTask<void> writeNB(Addr a, std::uint64_t v,
                               TimeCat cat = TimeCat::MemWait);

    /** writeNB of a double. */
    sim::SubTask<void>
    writeNBD(Addr a, double v, TimeCat cat = TimeCat::MemWait)
    {
        return writeNB(a, std::bit_cast<std::uint64_t>(v), cat);
    }

    /** Drain all outstanding non-blocking writes (release fence). */
    sim::SubTask<void> fence(TimeCat cat = TimeCat::MemWait);

    /** Double-precision store (the value is bit-cast to a word). */
    MemAwait
    writeD(Addr a, double v, TimeCat cat = TimeCat::MemWait)
    {
        return write(a, std::bit_cast<std::uint64_t>(v), cat);
    }

    static double asDouble(std::uint64_t w) { return std::bit_cast<double>(w); }

    void prefetchRead(Addr a) { coh_.prefetch(a, false); }
    void prefetchWrite(Addr a) { coh_.prefetch(a, true); }

    /** Spin until @p pred holds on the word at @p a (invalidation-driven). */
    sim::SubTask<std::uint64_t>
    spinUntil(Addr a, std::function<bool(std::uint64_t)> pred,
              TimeCat cat = TimeCat::Sync);

    /** Acquire / release a shared-memory spin lock word. */
    sim::SubTask<void> lock(Addr a);
    sim::SubTask<void> unlock(Addr a);

    // ------------------------------------------------------------------
    // Message passing
    // ------------------------------------------------------------------

    /**
     * Send an active message (fine-grained). The words of @p args are
     * read when the message leaves, after the send first suspends, so
     * they must stay alive and unchanged until the co_await returns:
     * a buffer the calling program owns and refills per send, or a
     * temporary of the co_await's own expression.
     */
    sim::SubTask<void> send(NodeId dst, msg::HandlerId h,
                            std::span<const std::uint64_t> args);

    /** Send a bulk transfer: args + DMA body (lifetime as for send). */
    sim::SubTask<void> sendBulk(NodeId dst, msg::HandlerId h,
                                std::span<const std::uint64_t> args,
                                std::span<const std::uint64_t> body);

    /** Poll the NI, running any queued handlers. Returns count. */
    sim::SubTask<int> poll();

    /**
     * A compiler/user-inserted polling call inside a compute loop
     * (Section 3.2: polled reception requires explicit poll points).
     * No-op under interrupt delivery; under polling it charges the
     * poll-check cost and drains the queue when messages are waiting.
     */
    sim::SubTask<void> pollPoint();

    /**
     * Wait until @p pred holds. In interrupt mode this blocks; in
     * polling mode it poll-spins. Handlers changing the predicate's
     * inputs wake the waiter automatically. The predicate lives in the
     * (recycled) coroutine frame and the processor is handed a
     * reference to it, so a wait allocates nothing whatever the
     * predicate captures.
     */
    template <typename Pred>
    sim::SubTask<void>
    waitUntil(Pred pred, TimeCat cat = TimeCat::Sync)
    {
        if (ni_.mode() == msg::RecvMode::Interrupt) {
            if (pred())
                co_return;
            co_await CondAwait{proc_, [&pred]() { return pred(); }, cat};
            co_return;
        }

        // Polling: alternate between draining the queue and blocking
        // until either a message arrives or the predicate flips.
        for (;;) {
            proc_.advance(cat, cfg_.pollEmptyCycles);
            co_await SyncAwait{proc_};
            ni_.pollDrain();
            if (pred())
                co_return;
            co_await CondAwait{
                proc_,
                [this, &pred]() { return !ni_.queueEmpty() || pred(); },
                cat};
            if (pred()) {
                // Still drain whatever arrived with the wake-up.
                co_await SyncAwait{proc_};
                ni_.pollDrain();
                co_return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /** Global barrier (implementation depends on the machine's style). */
    sim::SubTask<void> barrier();

  private:
    NodeId self_;
    int nprocs_;
    const MachineConfig &cfg_;
    Proc &proc_;
    coh::CoherenceController &coh_;
    msg::NetIface &ni_;
    SyncSystem &sync_;
    MachineCounters &counters_;

    /** In-flight non-blocking writes (relaxed-consistency window). */
    std::vector<std::shared_ptr<OpState>> pendingWrites_;
};

} // namespace alewife::proc

#endif // ALEWIFE_PROC_CONTEXT_HH
