/**
 * @file
 * I/O cross-traffic injectors for bisection-bandwidth emulation.
 *
 * Mirrors the paper's Section 5.2 methodology: I/O nodes attached to the
 * left and right edges of the mesh stream messages straight across the
 * bisection in both directions. The emulated machine's bisection is the
 * native bisection minus the injected cross-traffic bandwidth. Smaller
 * cross-traffic messages emulate more smoothly but cap the achievable
 * reduction (Figure 7); the paper settles on 64-byte messages.
 *
 * We inject at the edge-column compute routers (the I/O nodes of the real
 * machine sit just off those routers); the packets traverse the full X
 * dimension and are dropped at the opposite edge without touching any
 * network-interface queue, so applications only feel the link contention.
 */

#ifndef ALEWIFE_NET_CROSS_TRAFFIC_HH
#define ALEWIFE_NET_CROSS_TRAFFIC_HH

#include <cstdint>

#include "net/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace alewife::ckpt {
class Access;
}

namespace alewife::net {

/** Parameters of a cross-traffic experiment. */
struct CrossTrafficConfig
{
    /** Total bisection bandwidth to consume, bytes per processor cycle. */
    double bytesPerCycle = 0.0;
    /** Size of each cross-traffic message in bytes (paper: 64). */
    std::uint32_t messageBytes = 64;
};

/**
 * Streams cross-traffic across the mesh bisection for the whole run.
 */
class CrossTraffic
{
  public:
    CrossTraffic(EventQueue &eq, Mesh &mesh, CrossTrafficConfig cfg);

    /** Begin injecting. Idempotent. */
    void start();

    /** Stop injecting (pending packets still drain). */
    void stop();

    /** Bytes injected so far. */
    std::uint64_t bytesInjected() const { return bytesInjected_; }

    /**
     * The bisection bandwidth (bytes/cycle) left for the application,
     * i.e. native minus consumed. Clamped at zero.
     */
    double effectiveBisection() const;

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;

    /** One stream: fixed (srcNode -> dstNode) flow at fixed rate. */
    struct Stream
    {
        NodeId src;
        NodeId dst;
    };

    void injectAll();

    EventQueue &eq_;
    Mesh &mesh_;
    CrossTrafficConfig cfg_;
    std::vector<Stream> streams_;
    Tick periodTicks_ = 0;
    bool running_ = false;
    std::uint64_t bytesInjected_ = 0;
};

} // namespace alewife::net

#endif // ALEWIFE_NET_CROSS_TRAFFIC_HH
