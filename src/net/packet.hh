/**
 * @file
 * Network packets and volume accounting.
 *
 * A Packet is the unit the mesh moves. The layers above (coherence
 * protocol, active messages, cross-traffic) attach their own payload via
 * a small polymorphic base so the network stays ignorant of protocol
 * details. Each packet also carries its byte contribution to the Figure 5
 * volume categories so the machine-wide volume breakdown is computed at
 * injection time, exactly like the CMMU statistics counters.
 *
 * A run makes and drops one Packet and one payload per message, so both
 * derive from sim::Recycled: their memory comes from the simulating
 * thread's free lists (sim/recycler.hh), not from the global heap.
 * Owners keep using std::unique_ptr as before.
 */

#ifndef ALEWIFE_NET_PACKET_HH
#define ALEWIFE_NET_PACKET_HH

#include <array>
#include <cstdint>
#include <memory>

#include "sim/recycler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace alewife::net {

/** Coarse packet classification, used for dispatch at the receiver. */
enum class PacketKind : std::uint8_t
{
    Coherence,     ///< directory-protocol traffic
    ActiveMessage, ///< user-level active message (possibly with DMA body)
    CrossTraffic,  ///< I/O cross-traffic used for bisection emulation
};

/** Base class for protocol-specific payloads carried by a Packet. */
struct PayloadBase : sim::Recycled
{
    virtual ~PayloadBase() = default;
};

/** A message in flight. */
struct Packet : sim::Recycled
{
    NodeId src = -1;
    NodeId dst = -1;
    PacketKind kind = PacketKind::CrossTraffic;
    std::uint32_t sizeBytes = 0;
    std::uint64_t id = 0;

    /** Bytes this packet contributes to each Figure 5 volume category. */
    std::array<std::uint32_t,
               static_cast<std::size_t>(VolCat::NumCats)> volBytes{};

    /** If false, excluded from application volume stats (cross-traffic). */
    bool countInVolume = true;

    std::unique_ptr<PayloadBase> payload;

    /** Add @p bytes to category @p c and to the packet size. */
    void
    addBytes(VolCat c, std::uint32_t bytes)
    {
        volBytes[static_cast<std::size_t>(c)] += bytes;
        sizeBytes += bytes;
    }

    /** Downcast the payload; panics live in the caller via assert. */
    template <typename T>
    T &
    as()
    {
        return static_cast<T &>(*payload);
    }
};

} // namespace alewife::net

#endif // ALEWIFE_NET_PACKET_HH
