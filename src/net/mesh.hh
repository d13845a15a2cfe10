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
 * queue full). The packet then parks, holds its final link busy, and is
 * redelivered after niRetryCycles — modelling the tree saturation the
 * paper observes for message-passing traffic at high rates. A link's
 * busy time grows only by the ticks a hold extends its horizon, so
 * packets parked side by side are not counted twice. Redeliveries are
 * the bulk of all events under irregular message passing, so each is
 * an EventQueue retry record (scheduleRetry) rather than a closure,
 * dispatched back to the mesh through the handler it registers when it
 * is constructed.
 *
 * An ideal mode (MachineConfig::idealNet) replaces all of this with a
 * uniform one-way latency and infinite bandwidth, used by the Figure 10
 * context-switching latency-emulation experiment.
 */

#ifndef ALEWIFE_NET_MESH_HH
#define ALEWIFE_NET_MESH_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "machine/config.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/small_vec.hh"
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
     * the network hold it and retry (NI queue full).
     */
    using Sink = std::function<bool(Packet &)>;

    /** Registers itself as @p eq's retry handler (see deliver()). */
    Mesh(EventQueue &eq, const MachineConfig &cfg);
    Mesh(const Mesh &) = delete;
    Mesh &operator=(const Mesh &) = delete;

    /** Register the delivery callback for @p node. */
    void setSink(NodeId node, Sink sink);

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
    std::uint64_t niRejects() const { return niRejects_; }

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

    /**
     * Route scratch type: a route is at most meshX + meshY link
     * indices, so meshes up to 64 hops across stay in inline storage;
     * larger ones spill once and then reuse the allocation.
     */
    using RouteBuf = sim::SmallVec<int, 64>;

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
    const std::vector<Link> &linkStats() const { return links_; }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;


    /** Index of the unidirectional link leaving (x,y) toward (nx,ny). */
    int linkIndex(int x, int y, int nx, int ny) const;

    /** Compute the XY route; fills @p links with link indices in order. */
    void route(NodeId src, NodeId dst, RouteBuf &links) const;

    /**
     * Hand an arrived packet to its sink; on reject, park it and queue
     * an EventQueue retry record (dispatched back here).
     */
    void deliver(std::unique_ptr<Packet> pkt, int finalLink);

    /** The un-memoized serialization formula (table fill + fallback). */
    Tick serializationTicksExact(std::uint32_t bytes) const;

    /**
     * (Re)compute every cfg_-derived timing quantity (hop/fixed/retry/
     * ideal ticks and the serialization memo). Called by the ctor and
     * again by ckpt::Access after a warm-start config delta changes a
     * network knob in place.
     */
    void computeDerivedTiming();

    /** Per-hop latency, jittered when hop jitter is enabled. */
    Tick hopLatency();

    EventQueue &eq_;
    const MachineConfig &cfg_;
    std::vector<Sink> sinks_;
    std::vector<Link> links_;
    VolumeBreakdown volume_;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t niRejects_ = 0;
    std::uint64_t bisectionBytes_ = 0;
    std::uint64_t nextId_ = 1;
    Tick hopTicks_;
    Tick fixedTicks_;
    Tick retryTicks_;
    Tick idealTicks_;
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
    mutable RouteBuf scratchLinks_;
};

} // namespace alewife::net

#endif // ALEWIFE_NET_MESH_HH
