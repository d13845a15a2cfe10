#include "net/mesh.hh"

#include <algorithm>
#include <cmath>

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife::net {

Mesh::Mesh(EventQueue &eq, const MachineConfig &cfg) : eq_(eq), cfg_(cfg)
{
    sinks_.resize(cfg.nodes());
    waiters_.resize(cfg.nodes());
    // Four unidirectional links per node (E, W, N, S); links off the mesh
    // edge exist but are only used by cross-traffic draining off-edge.
    links_.resize(static_cast<std::size_t>(cfg.nodes()) * 4);
    linkParked_.resize(links_.size());
    scratchLinks_.reserve(static_cast<std::size_t>(cfg.meshX + cfg.meshY));
    // Classify each link once, so send() does no division per hop. The
    // bisection is the vertical cut between columns bisectX-1 and
    // bisectX; an east/west link whose endpoints straddle it crosses.
    linkFlags_.resize(links_.size());
    const int bisectX = cfg.meshX / 2;
    for (std::size_t li = 0; li < links_.size(); ++li) {
        const int x = static_cast<int>(li / 4) % cfg.meshX;
        const int dir = static_cast<int>(li % 4);
        linkFlags_[li] =
            static_cast<std::uint8_t>((dir == 0 || dir == 1 ? kXLink : 0)
                                      | ((dir == 0 && x == bisectX - 1)
                                                 || (dir == 1 && x == bisectX)
                                             ? kCutLink
                                             : 0));
    }
    computeDerivedTiming();
}

void
Mesh::computeDerivedTiming()
{
    hopTicks_ = cyclesToTicks(cfg_.hopCycles());
    fixedTicks_ = cyclesToTicks(cfg_.netFixedCycles());
    retryTicks_ = cyclesToTicks(cfg_.niRetryCycles);
    eq_.setPollPeriod(retryTicks_);
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
Mesh::route(NodeId src, NodeId dst, std::vector<int> &links) const
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

    Tick head = now + fixedTicks_;
    Tick first_link_wait = 0;
    Tick hopTicksTotal = 0;
    Tick queueTicksTotal = 0;
    std::uint16_t xHops = 0;
    bool first = true;
    int finalLink = -1;
    for (int li : scratchLinks_) {
        if (!linkParked_[li].empty())
            materialize(li);
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

        if (linkFlags_[li] & kXLink)
            ++xHops;
        if (linkFlags_[li] & kCutLink)
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

bool
Mesh::offer(Packet &pkt)
{
    // dst was validated by route() at injection; plain indexing here.
    Sink &sink = sinks_[static_cast<std::size_t>(pkt.dst)];
    if (!sink)
        ALEWIFE_PANIC("no sink registered for node ", pkt.dst);
    if (!sink(pkt))
        return false;
    ++delivered_;
    if (hooks_)
        hooks_->onPacketDelivered(pkt);
    return true;
}

void
Mesh::reject(int finalLink)
{
    // Receiver full: the packet stays parked and keeps its final link
    // busy until its next poll. Busy time grows only by the ticks the
    // hold adds past the link's current horizon, so several packets
    // parked behind one link never count the same tick twice.
    ++niRejects_;
    if (finalLink < 0)
        return;
    materialize(finalLink);
    const Tick now = eq_.now();
    const Tick retryAt = now + retryTicks_;
    Link &link = links_[finalLink];
    if (retryAt > link.freeAt) {
        link.busyTicks += retryAt - std::max(link.freeAt, now);
        link.freeAt = retryAt;
    }
}

void
Mesh::materialize(int li) const
{
    // Each virtual poll extended the horizon to its tick + the retry
    // delay, and found it at or past its own tick (the previous poll's
    // hold), so busy time grew by exactly the extension. No poll has
    // run past now, so a horizon a full period out is final.
    Link &link = links_[li];
    if (linkParked_[li].empty() || link.freeAt >= eq_.now() + retryTicks_)
        return;
    const std::optional<Tick> last = eq_.latestPoll(linkParked_[li]);
    if (!last)
        return; // all armed: they hold for themselves
    const Tick hold = *last + retryTicks_;
    if (hold > link.freeAt) {
        link.busyTicks += hold - link.freeAt;
        link.freeAt = hold;
    }
}

const std::vector<Mesh::Link> &
Mesh::linkStats() const
{
    for (std::size_t li = 0; li < links_.size(); ++li)
        materialize(static_cast<int>(li));
    return links_;
}

void
Mesh::deliver(std::unique_ptr<Packet> pkt, int finalLink)
{
    if (offer(*pkt))
        return;
    reject(finalLink);
    const NodeId dst = pkt->dst;
    const EventQueue::PollerId id = eq_.park(
        EventMeta{EventTag::MeshRetry,
                  reinterpret_cast<std::uintptr_t>(pkt.get()),
                  static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(finalLink))});
    if (parked_.size() <= id)
        parked_.resize(id + 1);
    parked_[id] = Parked{pkt.release(), finalLink};
    waiters_[static_cast<std::size_t>(dst)].list.push_back(id);
    if (finalLink >= 0)
        linkParked_[finalLink].push_back(id);
}

void
Mesh::wake(NodeId node)
{
    Waiters &w = waiters_[static_cast<std::size_t>(node)];
    if (w.armed != EventQueue::kNoPoller || w.list.empty())
        return;
    // The earliest next poll; equal ticks share a phase class, whose
    // order decides.
    const EventQueue::PollerId first = eq_.firstToPoll(w.list);
    // Its virtual holds end here; the armed poll holds for itself.
    if (const int li = parked_[first].finalLink; li >= 0)
        materialize(li);
    w.armed = first;
    eq_.arm(first, [this, first]() { pollArmed(first); });
}

void
Mesh::pollArmed(EventQueue::PollerId id)
{
    const Parked p = parked_[id];
    Waiters &w = waiters_[static_cast<std::size_t>(p.pkt->dst)];
    w.armed = EventQueue::kNoPoller;
    // Off the wait list while offered: a sink that still has room
    // after taking it wakes the next waiter.
    eraseOne(w.list, [id](EventQueue::PollerId c) { return c == id; });
    if (offer(*p.pkt)) {
        if (p.finalLink >= 0)
            eraseOne(linkParked_[p.finalLink],
                     [id](EventQueue::PollerId c) { return c == id; });
        eq_.unpark(id);
        delete p.pkt;
        return;
    }
    w.list.push_back(id);
    reject(p.finalLink);
    eq_.repark(id);
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
        materialize(east);
        materialize(west);
        worst = std::max({worst, links_[east].busyTicks,
                          links_[west].busyTicks});
    }
    return static_cast<double>(worst) / static_cast<double>(eq_.now());
}

} // namespace alewife::net
