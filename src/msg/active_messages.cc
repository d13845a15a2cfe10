#include "msg/active_messages.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace alewife::msg {

void
HandlerEnv::send(NodeId dst, HandlerId h,
                 std::span<const std::uint64_t> args,
                 std::span<const std::uint64_t> body, bool bulk)
{
    Outgoing o;
    o.dst = dst;
    o.handler = h;
    o.args.assign(args.begin(), args.end());
    o.body.assign(body.begin(), body.end());
    o.bulk = bulk;
    outgoing_.push_back(std::move(o));
}

HandlerId
HandlerRegistry::add(HandlerFn fn)
{
    table_.push_back(std::move(fn));
    return static_cast<HandlerId>(table_.size() - 1);
}

void
HandlerRegistry::run(HandlerId id, HandlerEnv &env) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= table_.size())
        ALEWIFE_PANIC("unknown handler id ", id);
    table_[id](env);
}

NetIface::NetIface(NodeId self, EventQueue &eq, const MachineConfig &cfg,
                   proc::Proc &proc, net::Mesh &mesh,
                   HandlerRegistry &handlers, MachineCounters &counters)
    : self_(self), eq_(eq), cfg_(cfg), proc_(proc), mesh_(mesh),
      handlers_(handlers), counters_(counters)
{
}

Tick
NetIface::inject(NodeId dst, HandlerId h,
                 std::span<const std::uint64_t> args,
                 std::span<const std::uint64_t> body, bool bulk, Tick when)
{
    auto msg = std::make_unique<AmMessage>();
    msg->handler = h;
    msg->src = self_;
    msg->args.assign(args.begin(), args.end());
    msg->body.assign(body.begin(), body.end());
    msg->bulk = bulk;

    auto pkt = std::make_unique<net::Packet>();
    pkt->src = self_;
    pkt->dst = dst;
    pkt->kind = net::PacketKind::ActiveMessage;
    pkt->addBytes(VolCat::Headers, cfg_.amHeaderBytes);
    if (!msg->args.empty())
        pkt->addBytes(VolCat::Data,
                      static_cast<std::uint32_t>(8 * msg->args.size()));
    if (bulk) {
        // (address, length) descriptor plus the body padded to the DMA
        // alignment granularity (the padding loss Figure 5 shows for
        // ICCG's small bulk transfers).
        pkt->addBytes(VolCat::Headers, 8);
        const std::uint32_t raw =
            static_cast<std::uint32_t>(8 * msg->body.size());
        const std::uint32_t align = cfg_.dmaAlignBytes;
        const std::uint32_t padded = (raw + align - 1) / align * align;
        pkt->addBytes(VolCat::Data, padded);
        ++counters_.dmaTransfers;
    } else if (!msg->body.empty()) {
        pkt->addBytes(VolCat::Data,
                      static_cast<std::uint32_t>(8 * msg->body.size()));
    }
    pkt->payload = std::move(msg);

    if (when <= eq_.now())
        return mesh_.send(std::move(pkt));

    auto *raw = pkt.release();
    eq_.schedule(when,
                 EventMeta{EventTag::AmPacketLaunch,
                           reinterpret_cast<std::uintptr_t>(raw), 0},
                 [this, raw]() {
                     mesh_.send(std::unique_ptr<net::Packet>(raw));
                 });
    return 0;
}

bool
NetIface::receive(net::Packet &pkt)
{
    if (static_cast<int>(inq_.size()) >= cfg_.niInputQueueSlots) {
        ++counters_.niQueueFullStalls;
        return false;
    }
    auto *am = dynamic_cast<AmMessage *>(pkt.payload.get());
    if (!am)
        ALEWIFE_PANIC("non-AM packet delivered to NI at node ", self_);
    pkt.payload.release();
    inq_.emplace_back(am);

    if (mode_ == RecvMode::Interrupt && !drainScheduled_) {
        drainScheduled_ = true;
        const Tick at = std::max(eq_.now(), lastHandlerDone_);
        eq_.schedule(at,
                     EventMeta{EventTag::AmDrain,
                               static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(self_)),
                               0},
                     [this]() { drainNext(); });
    }
    // Polling mode: the program discovers the message at its next poll.
    proc_.recheckCond();
    return true;
}

Tick
NetIface::runHandler(const AmMessage &m)
{
    HandlerEnv env(self_, m, *this);
    handlers_.run(m.handler, env);

    double cost = cfg_.amDispatchCycles
                  + cfg_.amRecvPerWordCycles
                        * static_cast<double>(m.args.size())
                  + env.extraCycles_;
    if (mode_ == RecvMode::Interrupt) {
        cost += cfg_.amInterruptCycles;
        ++counters_.interruptsTaken;
    } else {
        ++counters_.messagesPolled;
    }
    // Replies cost normal send overhead, paid inside the handler.
    for (const auto &o : env.outgoing_) {
        cost += cfg_.amSendCycles
                + cfg_.amSendPerWordCycles
                      * static_cast<double>(o.args.size());
        if (o.bulk)
            cost += cfg_.dmaSetupCycles;
    }

    const Tick done = proc_.chargeHandler(cost, TimeCat::MsgOverhead);

    for (auto &o : env.outgoing_)
        inject(o.dst, o.handler, o.args, o.body, o.bulk, done);

    ++delivered_;
    proc_.recheckCond();
    return done;
}

void
NetIface::drainNext()
{
    if (inq_.empty()) {
        drainScheduled_ = false;
        return;
    }
    auto m = std::move(inq_.front());
    inq_.pop_front();
    lastHandlerDone_ = runHandler(*m);
    eq_.schedule(lastHandlerDone_,
                 EventMeta{EventTag::AmDrain,
                           static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(self_)),
                           0},
                 [this]() { drainNext(); });
}

int
NetIface::pollDrain()
{
    int n = 0;
    while (!inq_.empty()) {
        auto m = std::move(inq_.front());
        inq_.pop_front();
        runHandler(*m);
        ++n;
    }
    return n;
}

} // namespace alewife::msg
