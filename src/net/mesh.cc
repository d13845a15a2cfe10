#include "net/mesh.hh"

#include <algorithm>
#include <cmath>

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife::net {

Mesh::Mesh(EventQueue &eq, const MachineConfig &cfg) : eq_(eq), cfg_(cfg)
{
    sinks_.resize(cfg.nodes());
    // Four unidirectional links per node (E, W, N, S); links off the mesh
    // edge exist but are only used by cross-traffic draining off-edge.
    links_.resize(static_cast<std::size_t>(cfg.nodes()) * 4);
    computeDerivedTiming();
    eq_.setRetryHandler(
        [](void *mesh, const EventMeta &meta) {
            static_cast<Mesh *>(mesh)->deliver(
                std::unique_ptr<Packet>(
                    reinterpret_cast<Packet *>(meta.a)),
                static_cast<int>(static_cast<std::int64_t>(meta.b)));
        },
        this);
}

void
Mesh::computeDerivedTiming()
{
    hopTicks_ = cyclesToTicks(cfg_.hopCycles());
    fixedTicks_ = cyclesToTicks(cfg_.netFixedCycles());
    retryTicks_ = cyclesToTicks(cfg_.niRetryCycles);
    idealTicks_ = cyclesToTicks(cfg_.idealNetLatencyCycles);
    // Memoize serialization times for every packet size up to 4 KiB
    // (covers all protocol/AM/DMA packets; larger sizes fall back to
    // the exact formula). Filled with the exact per-call computation so
    // lookups are bit-identical to the pre-memo behavior.
    serTable_.resize(4096);
    for (std::uint32_t b = 0; b < serTable_.size(); ++b)
        serTable_[b] = serializationTicksExact(b);
}

void
Mesh::setSink(NodeId node, Sink sink)
{
    sinks_.at(node) = std::move(sink);
}

Tick
Mesh::serializationTicksExact(std::uint32_t bytes) const
{
    return cyclesToTicks(static_cast<double>(bytes)
                         / cfg_.linkBytesPerCycle());
}

Tick
Mesh::serializationTicks(std::uint32_t bytes) const
{
    if (bytes < serTable_.size())
        return serTable_[bytes];
    return serializationTicksExact(bytes);
}

void
Mesh::setHopJitter(double frac, std::uint64_t seed)
{
    jitterFrac_ = frac;
    jitterRng_ = Rng(seed);
}

Tick
Mesh::hopLatency()
{
    if (jitterFrac_ <= 0.0)
        return hopTicks_;
    const double f =
        1.0 + jitterFrac_ * (2.0 * jitterRng_.nextDouble() - 1.0);
    const auto t = static_cast<Tick>(
        std::llround(static_cast<double>(hopTicks_) * f));
    return t < 1 ? 1 : t;
}

int
Mesh::linkIndex(int x, int y, int nx, int ny) const
{
    const int node = y * cfg_.meshX + x;
    int dir;
    if (nx == x + 1 && ny == y)
        dir = 0; // east
    else if (nx == x - 1 && ny == y)
        dir = 1; // west
    else if (ny == y + 1 && nx == x)
        dir = 2; // north
    else if (ny == y - 1 && nx == x)
        dir = 3; // south
    else
        ALEWIFE_PANIC("non-adjacent hop in route");
    return node * 4 + dir;
}

void
Mesh::route(NodeId src, NodeId dst, RouteBuf &links) const
{
    links.clear();
    int x = src % cfg_.meshX;
    int y = src / cfg_.meshX;
    const int dx = dst % cfg_.meshX;
    const int dy = dst / cfg_.meshX;
    while (x != dx) {
        const int nx = x + (dx > x ? 1 : -1);
        links.push_back(linkIndex(x, y, nx, y));
        x = nx;
    }
    while (y != dy) {
        const int ny = y + (dy > y ? 1 : -1);
        links.push_back(linkIndex(x, y, x, ny));
        y = ny;
    }
}

int
Mesh::hopCount(NodeId a, NodeId b) const
{
    const int ax = a % cfg_.meshX, ay = a / cfg_.meshX;
    const int bx = b % cfg_.meshX, by = b / cfg_.meshX;
    return std::abs(ax - bx) + std::abs(ay - by);
}

Tick
Mesh::send(std::unique_ptr<Packet> pkt)
{
    pkt->id = nextId_++;
    ++injected_;
    if (pkt->countInVolume) {
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(VolCat::NumCats); ++c) {
            volume_.add(static_cast<VolCat>(c), pkt->volBytes[c]);
        }
    }
    if (hooks_)
        hooks_->onPacketInjected(*pkt);

    const Tick now = eq_.now();

    if (cfg_.idealNet) {
        // Uniform latency, infinite bandwidth, no contention.
        const Tick arrive = now + idealTicks_;
        if (hooks_) {
            check::PacketEdgeCost cost;
            cost.src = pkt->src;
            cost.dst = pkt->dst;
            cost.bytes = pkt->sizeBytes;
            cost.fixedTicks = idealTicks_;
            cost.ideal = true;
            hooks_->onPacketEdgeCost(cost);
        }
        auto *raw = pkt.release();
        eq_.schedule(arrive,
                     EventMeta{EventTag::MeshDeliverIdeal,
                               reinterpret_cast<std::uintptr_t>(raw), 0},
                     [this, raw]() {
                         deliver(std::unique_ptr<Packet>(raw), -1);
                     });
        return 0;
    }

    route(pkt->src, pkt->dst, scratchLinks_);
    const Tick ser = serializationTicks(pkt->sizeBytes);
    const int bisectX = cfg_.meshX / 2; // links from column bisectX-1 <-> bisectX

    Tick head = now + fixedTicks_;
    Tick first_link_wait = 0;
    Tick hopTicksTotal = 0;
    Tick queueTicksTotal = 0;
    std::uint16_t xHops = 0;
    bool first = true;
    int finalLink = -1;
    for (int li : scratchLinks_) {
        Link &link = links_[li];
        const Tick hop = hopLatency();
        const Tick uncontended = head + hop;
        head = std::max(uncontended, link.freeAt + hop);
        const Tick waited = head - uncontended;
        if (first) {
            first_link_wait = waited;
            first = false;
        }
        hopTicksTotal += hop;
        queueTicksTotal += waited;
        link.freeAt = head + ser;
        link.busyTicks += ser;
        link.bytes += pkt->sizeBytes;
        finalLink = li;
        if (hooks_)
            hooks_->onHop(*pkt, li, head, waited);

        // Bisection accounting: an east/west link whose endpoints straddle
        // the vertical cut.
        const int node = li / 4;
        const int dir = li % 4;
        const int x = node % cfg_.meshX;
        if (dir == 0 || dir == 1)
            ++xHops;
        if ((dir == 0 && x == bisectX - 1) || (dir == 1 && x == bisectX))
            bisectionBytes_ += pkt->sizeBytes;
    }
    // Tail arrives one hop + serialization after the head enters the last
    // link; for the zero-hop (self) case just charge fixed + serialization.
    const Tick arrive =
        scratchLinks_.empty() ? now + fixedTicks_ + ser : head + ser;

    if (hooks_) {
        check::PacketEdgeCost cost;
        cost.src = pkt->src;
        cost.dst = pkt->dst;
        cost.bytes = pkt->sizeBytes;
        cost.hops = static_cast<std::uint16_t>(scratchLinks_.size());
        cost.xHops = xHops;
        cost.fixedTicks = fixedTicks_;
        cost.hopTicksTotal = hopTicksTotal;
        cost.serTicks = ser;
        cost.queueTicks = queueTicksTotal;
        hooks_->onPacketEdgeCost(cost);
    }
    auto *raw = pkt.release();
    eq_.schedule(arrive,
                 EventMeta{EventTag::MeshDeliver,
                           reinterpret_cast<std::uintptr_t>(raw),
                           static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(finalLink))},
                 [this, raw, finalLink]() {
                     deliver(std::unique_ptr<Packet>(raw), finalLink);
                 });
    return first_link_wait;
}

void
Mesh::deliver(std::unique_ptr<Packet> pkt, int finalLink)
{
    // dst was validated by route() at injection; plain indexing here.
    Sink &sink = sinks_[static_cast<std::size_t>(pkt->dst)];
    if (!sink)
        ALEWIFE_PANIC("no sink registered for node ", pkt->dst);
    if (sink(*pkt)) {
        ++delivered_;
        if (hooks_)
            hooks_->onPacketDelivered(*pkt);
        return;
    }

    // Receiver full: park the packet, keep the final link busy, retry.
    // Busy time grows only by the ticks the hold adds past the link's
    // current horizon, so several packets parked behind one link never
    // count the same tick twice.
    ++niRejects_;
    if (finalLink >= 0) {
        Link &link = links_[finalLink];
        const Tick holdEnd = eq_.now() + retryTicks_;
        if (holdEnd > link.freeAt) {
            link.busyTicks += holdEnd - std::max(link.freeAt, eq_.now());
            link.freeAt = holdEnd;
        }
    }
    eq_.scheduleRetry(eq_.now() + retryTicks_,
                      EventMeta{EventTag::MeshRetry,
                                reinterpret_cast<std::uintptr_t>(
                                    pkt.release()),
                                static_cast<std::uint64_t>(
                                    static_cast<std::int64_t>(finalLink))});
}

double
Mesh::bisectionUtilization() const
{
    if (eq_.now() == 0)
        return 0.0;
    std::uint64_t worst = 0;
    const int bisectX = cfg_.meshX / 2;
    for (int y = 0; y < cfg_.meshY; ++y) {
        const int east =
            linkIndex(bisectX - 1, y, bisectX, y);
        const int west = linkIndex(bisectX, y, bisectX - 1, y);
        worst = std::max({worst, links_[east].busyTicks,
                          links_[west].busyTicks});
    }
    return static_cast<double>(worst) / static_cast<double>(eq_.now());
}

} // namespace alewife::net
