/**
 * @file
 * Contended 2D mesh with dimension-order (XY) wormhole routing.
 *
 * The timing model is a standard wormhole approximation: the packet head
 * advances one hop per hopTicks, each traversed unidirectional link is
 * occupied for the packet's serialization time, and a link already busy
 * delays the head (per-link freeAt horizon). Congestion therefore grows
 * nonlinearly with offered load, which is what produces the paper's
 * "congestion dominated" region (Figure 1).
 *
 * Backpressure: a receiver may reject a delivery (network-interface input
 * queue full). The packet then parks in the network, holds its final
 * link busy, and polls its receiver every niRetryCycles — modelling the
 * tree saturation the paper observes for message-passing traffic at
 * high rates. A link's busy time grows only by the ticks a hold extends
 * its horizon, so packets parked side by side are not counted twice.
 *
 * Polls are the bulk of all events under irregular message passing, so
 * a parked packet is an EventQueue poller (EventQueue::park): while its
 * receiver stays full, every poll is virtual — counted, never run. The
 * mesh keeps each node's waiters and, when the receiver reports room
 * (wake()), arms the one whose next poll comes first; only that poll is
 * a real event, and it delivers the packet or parks it again. A
 * virtual poll's hold on the final link is folded in lazily: a link
 * with parked packets is brought up to date before anything reads or
 * moves its horizon. Rejections are counted here only (niRejects();
 * the machine's niQueueFullStalls mirrors it).
 *
 * Both lazy steps scan a list of parked packets, tens long in a storm:
 * wake() a node's waiters, materialize() a link's. Each hands the
 * whole list to the event queue (EventQueue::firstToPoll,
 * EventQueue::latestPoll), which reduces now() mod the poll period
 * once per tick and compares each poller's stored phase against it,
 * with no division per packet. send() likewise reads per-link flags
 * for its bisection accounting instead of dividing per hop.
 *
 * An ideal mode (MachineConfig::idealNet) replaces all of this with a
 * uniform one-way latency and infinite bandwidth, used by the Figure 10
 * context-switching latency-emulation experiment.
 */

#ifndef ALEWIFE_NET_MESH_HH
#define ALEWIFE_NET_MESH_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "machine/config.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace alewife::check {
class Hooks;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife::net {

/**
 * The machine interconnect.
 */
class Mesh
{
  public:
    /**
     * Delivery callback: return true to accept the packet, false to make
     * the network hold it (NI queue full). A sink that rejects must
     * call wake() whenever its node has room again; until then its
     * parked packets are not offered again.
     */
    using Sink = std::function<bool(Packet &)>;

    Mesh(EventQueue &eq, const MachineConfig &cfg);
    Mesh(const Mesh &) = delete;
    Mesh &operator=(const Mesh &) = delete;

    /** Register the delivery callback for @p node. */
    void setSink(NodeId node, Sink sink);

    /**
     * @p node's receiver has room: arm the parked packet whose next
     * poll comes first, unless one is armed already. One scan of the
     * node's waiters, division-free (see the file comment).
     */
    void wake(NodeId node);

    /**
     * Inject @p pkt at time now. Ownership transfers to the mesh until
     * delivery. @p pkt.src/dst must be valid node ids.
     * @return ticks the packet waited to enter its first link — the
     *         sender-side back-pressure signal (0 in ideal mode)
     */
    Tick send(std::unique_ptr<Packet> pkt);

    /** Aggregate volume injected (application traffic only). */
    const VolumeBreakdown &volume() const { return volume_; }

    /** Total packets injected / delivered, including cross-traffic. */
    std::uint64_t packetsInjected() const { return injected_; }
    std::uint64_t packetsDelivered() const { return delivered_; }

    /** Times a delivery was rejected by a full NI queue. */
    std::uint64_t niRejects() const
    {
        return niRejects_ + eq_.virtualPolls();
    }

    /** Bytes that crossed the X-dimension bisection, both directions. */
    std::uint64_t bisectionBytes() const { return bisectionBytes_; }

    /**
     * Utilization [0,1] of the most-loaded bisection link so far, i.e.
     * busy ticks / elapsed ticks. Diagnostic for congestion studies.
     */
    double bisectionUtilization() const;

    /** Number of hops a packet from @p a to @p b traverses. */
    int hopCount(NodeId a, NodeId b) const;

    /**
     * Ticks a packet of @p bytes occupies one link. Memoized for
     * common sizes; bit-identical to computing
     * cyclesToTicks(bytes / linkBytesPerCycle()) directly.
     */
    Tick serializationTicks(std::uint32_t bytes) const;

    /** Observer notified on packet injection/delivery; may be null. */
    void setAuditHooks(check::Hooks *hooks) { hooks_ = hooks; }

    /**
     * Scale each hop's latency by a seeded uniform factor in
     * [1-frac, 1+frac] (fuzzing only; no effect in ideal mode). Link
     * occupancy still serializes packets, so per-route FIFO delivery
     * order is preserved.
     */
    void setHopJitter(double frac, std::uint64_t seed);

    const MachineConfig &config() const { return cfg_; }

    /** One unidirectional link. */
    struct Link
    {
        Tick freeAt = 0;
        std::uint64_t busyTicks = 0;
        std::uint64_t bytes = 0;
    };

    /**
     * Per-link occupancy counters, indexed node*4 + direction
     * (E,W,N,S). Read-only diagnostic for the observability exporter.
     */
    const std::vector<Link> &linkStats() const;

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;


    /** Index of the unidirectional link leaving (x,y) toward (nx,ny). */
    int linkIndex(int x, int y, int nx, int ny) const;

    /** Compute the XY route; fills @p links with link indices in order. */
    void route(NodeId src, NodeId dst, std::vector<int> &links) const;

    /** Hand an arrived packet to its sink; on reject, park it. */
    void deliver(std::unique_ptr<Packet> pkt, int finalLink);

    /** The armed poll of parked packet @p id. */
    void pollArmed(EventQueue::PollerId id);

    /** Offer @p pkt to its sink; true (and counted) if accepted. */
    bool offer(Packet &pkt);

    /**
     * Bookkeeping of one real rejection: count it and hold
     * @p finalLink busy until the next poll.
     */
    void reject(int finalLink);

    /** Fold the holds of @p li's virtual polls into the link. */
    void materialize(int li) const;

    /** The un-memoized serialization formula (table fill + fallback). */
    Tick serializationTicksExact(std::uint32_t bytes) const;

    /**
     * (Re)compute every cfg_-derived timing quantity (hop/fixed/retry/
     * ideal ticks and the serialization memo). Called by the ctor and
     * again by ckpt::Access after a warm-start config delta changes a
     * network knob in place; such a delta never changes the retry
     * period, on which the lazy holds of parked packets depend.
     */
    void computeDerivedTiming();

    /** Per-hop latency, jittered when hop jitter is enabled. */
    Tick hopLatency();

    /** A parked packet, indexed by its EventQueue::PollerId. */
    struct Parked
    {
        Packet *pkt = nullptr;
        int finalLink = -1;
    };

    /** Per node: its parked packets and the armed one, if any. */
    struct Waiters
    {
        std::vector<EventQueue::PollerId> list;
        EventQueue::PollerId armed = EventQueue::kNoPoller;
    };

    /** Drop @p id from @p v (order is irrelevant). */
    template <typename V, typename Pred>
    static void
    eraseOne(V &v, Pred is)
    {
        auto it = std::find_if(v.begin(), v.end(), is);
        *it = v.back();
        v.pop_back();
    }

    EventQueue &eq_;
    const MachineConfig &cfg_;
    std::vector<Sink> sinks_;
    std::vector<Parked> parked_;
    std::vector<Waiters> waiters_;
    /** Per link: the packets parked on it (their holds are lazy). */
    std::vector<std::vector<EventQueue::PollerId>> linkParked_;
    /** Horizons include every virtual hold once materialize()d. */
    mutable std::vector<Link> links_;
    /** Per link: kXLink if east/west, kCutLink if it crosses the
     *  bisection. */
    static constexpr std::uint8_t kXLink = 1;
    static constexpr std::uint8_t kCutLink = 2;
    std::vector<std::uint8_t> linkFlags_;
    VolumeBreakdown volume_;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t niRejects_ = 0;
    std::uint64_t bisectionBytes_ = 0;
    std::uint64_t nextId_ = 1;
    Tick hopTicks_ = 0;
    Tick fixedTicks_ = 0;
    Tick retryTicks_ = 0;
    Tick idealTicks_ = 0;
    /**
     * serializationTicks() memo for common packet sizes, computed once
     * with the exact per-call formula (tests/net/serialization_ticks
     * pins the agreement) so the per-packet double division is gone
     * from the hot path.
     */
    std::vector<Tick> serTable_;
    check::Hooks *hooks_ = nullptr;
    double jitterFrac_ = 0.0;
    Rng jitterRng_{0};
    /** Route scratch, reserved to the longest route (meshX + meshY
     *  links) at construction, so send() never allocates. */
    mutable std::vector<int> scratchLinks_;
};

} // namespace alewife::net

#endif // ALEWIFE_NET_MESH_HH
