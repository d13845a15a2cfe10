/**
 * @file
 * Active messages and the network interface (NI).
 *
 * Models Alewife's user-level messaging (Section 3.2):
 *   send_am(proc, handler, args...) — construct and launch costs charged
 *   to the sender; delivery either interrupts the receiving processor
 *   (amInterruptCycles per message) or waits for an explicit poll
 *   (Remote Queues style). Bulk transfer appends a DMA body to the
 *   message, padded to the DMA alignment granularity.
 *
 * The NI input queue is finite: when handlers cannot keep up, the queue
 * fills, the mesh parks packets against the final link, and congestion
 * backs up into the network — the endpoint-occupancy effect of
 * Section 5.1. The NI is the mesh's sink for its node: it rejects a
 * packet while the queue is full and calls Mesh::wake() whenever the
 * queue has room again (a handler took a message, or it accepted one
 * and is still not full), so parked packets are offered again.
 *
 * Steady-state messaging does not touch the heap. A send's Packet
 * comes from the thread's free lists (sim/recycler.hh). A handled
 * AmMessage is kept, with the capacity of its args and body, on a
 * per-thread spare list that the thread's next send takes from, in
 * this machine or the next one the thread builds. The input queue is
 * a ring and replies are staged in a per-NI buffer, both of which keep
 * their capacity.
 */

#ifndef ALEWIFE_MSG_ACTIVE_MESSAGES_HH
#define ALEWIFE_MSG_ACTIVE_MESSAGES_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "machine/config.hh"
#include "net/mesh.hh"
#include "net/packet.hh"
#include "proc/processor.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace alewife::ckpt {
class Access;
}

namespace alewife::msg {

/** Index into the machine-wide handler table. */
using HandlerId = int;

/**
 * Build argument words in place. Use this instead of a braced
 * initializer list at co_await'ed send sites: GCC 12's coroutine
 * lowering miscompiles init-list backing arrays that span a suspension
 * point ("array used as initializer" / double frees). The array is a
 * temporary of the co_await expression, so it outlives the send.
 */
template <typename... Ts>
std::array<std::uint64_t, sizeof...(Ts)>
amArgs(Ts... vs)
{
    return {static_cast<std::uint64_t>(vs)...};
}

/**
 * An active message (possibly with a DMA bulk body). NetIface reuses
 * whole messages (see the file comment), so their memory comes from
 * the global heap rather than the free lists: the spare list may then
 * outlive the thread's free lists when the thread exits.
 */
struct AmMessage : net::PayloadBase
{
    HandlerId handler = -1;
    NodeId src = -1;
    /** Register-file arguments (at most MachineConfig::amMaxWords/2). */
    std::vector<std::uint64_t> args;
    /** DMA body, present only for bulk transfers. */
    std::vector<std::uint64_t> body;
    bool bulk = false;

    static void *operator new(std::size_t bytes)
    {
        return ::operator new(bytes);
    }

    static void operator delete(void *p) noexcept { ::operator delete(p); }
};

class NetIface;

/**
 * Execution environment handed to a message handler.
 *
 * Handlers mutate application state synchronously, may charge extra
 * processor cycles for their work, and may send replies; replies leave
 * the node when the handler's stolen cycles complete.
 */
class HandlerEnv
{
  public:
    HandlerEnv(NodeId self, const AmMessage &m, NetIface &ni)
        : self_(self), msg_(m), ni_(ni)
    {
    }

    HandlerEnv(const HandlerEnv &) = delete;
    HandlerEnv &operator=(const HandlerEnv &) = delete;

    NodeId self() const { return self_; }
    const AmMessage &msg() const { return msg_; }

    /** Charge @p cycles of handler work beyond the dispatch cost. */
    void charge(double cycles) { extraCycles_ += cycles; }

    /** Queue a reply; injected when this handler completes. */
    void send(NodeId dst, HandlerId h,
              std::span<const std::uint64_t> args,
              std::span<const std::uint64_t> body = {}, bool bulk = false);

  private:
    friend class NetIface;

    NodeId self_;
    const AmMessage &msg_;
    NetIface &ni_;
    double extraCycles_ = 0.0;
};

using HandlerFn = std::function<void(HandlerEnv &)>;

/**
 * Machine-wide table of registered handlers.
 */
class HandlerRegistry
{
  public:
    HandlerId add(HandlerFn fn);
    void run(HandlerId id, HandlerEnv &env) const;
    void clear() { table_.clear(); }

  private:
    std::vector<HandlerFn> table_;
};

/** How this node extracts messages from the network. */
enum class RecvMode : std::uint8_t
{
    Interrupt,
    Polling,
};

/**
 * One node's network interface.
 */
class NetIface
{
  public:
    NetIface(NodeId self, EventQueue &eq, const MachineConfig &cfg,
             proc::Proc &proc, net::Mesh &mesh, HandlerRegistry &handlers,
             MachineCounters &counters);

    void setMode(RecvMode m) { mode_ = m; }
    RecvMode mode() const { return mode_; }

    /**
     * Launch a message at time @p when (>= now). Caller has already
     * charged the construction overhead.
     * @return ticks the packet waited to enter its first link (sender
     *         back-pressure indication)
     */
    Tick inject(NodeId dst, HandlerId h,
                std::span<const std::uint64_t> args,
                std::span<const std::uint64_t> body, bool bulk, Tick when);

    /** Network sink; false when the input queue is full. */
    bool receive(net::Packet &pkt);

    /**
     * Drain the input queue inline (polling mode; program Running).
     * @return number of messages handled
     */
    int pollDrain();

    bool queueEmpty() const { return queued_ == 0; }

    /** Total messages this NI has delivered to handlers. */
    std::uint64_t delivered() const { return delivered_; }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;
    /** Builds replies with makePacket(). */
    friend class HandlerEnv;

    /** A sized active-message packet from this node. */
    std::unique_ptr<net::Packet> makePacket(
        NodeId dst, HandlerId h, std::span<const std::uint64_t> args,
        std::span<const std::uint64_t> body, bool bulk);

    /** Send @p pkt at @p when (>= now); returns the first-link wait. */
    Tick launch(std::unique_ptr<net::Packet> pkt, Tick when);

    /** Run one handler; returns its completion tick. */
    Tick runHandler(const AmMessage &m);

    /** Interrupt-mode drain chain. */
    void drainNext();

    /** Take the queue head (the queue has room after). */
    std::unique_ptr<AmMessage> popHead();

    /** Run the queue head's handler; returns its completion tick. */
    Tick handleHead();

    /** The @p i-th queued message, from the head. */
    const AmMessage &
    queued(std::size_t i) const
    {
        return *inq_[(qHead_ + i) & (inq_.size() - 1)];
    }

    NodeId self_;
    EventQueue &eq_;
    const MachineConfig &cfg_;
    proc::Proc &proc_;
    net::Mesh &mesh_;
    HandlerRegistry &handlers_;
    MachineCounters &counters_;

    RecvMode mode_ = RecvMode::Interrupt;
    /**
     * The input queue: a ring of queued_ messages from qHead_, sized a
     * power of two and grown only when full (it never holds more than
     * niInputQueueSlots).
     */
    std::vector<std::unique_ptr<AmMessage>> inq_;
    std::size_t qHead_ = 0;
    std::size_t queued_ = 0;
    /** Replies of the running handler, built and sized. */
    std::vector<std::unique_ptr<net::Packet>> replies_;
    bool drainScheduled_ = false;
    Tick lastHandlerDone_ = 0;
    std::uint64_t delivered_ = 0;
};

} // namespace alewife::msg

#endif // ALEWIFE_MSG_ACTIVE_MESSAGES_HH
