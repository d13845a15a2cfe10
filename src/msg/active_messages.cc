#include "msg/active_messages.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace alewife::msg {

namespace {

/** Handled messages of this thread, for its next sends. */
thread_local std::vector<std::unique_ptr<AmMessage>> spares;

} // namespace

void
HandlerEnv::send(NodeId dst, HandlerId h,
                 std::span<const std::uint64_t> args,
                 std::span<const std::uint64_t> body, bool bulk)
{
    ni_.replies_.push_back(ni_.makePacket(dst, h, args, body, bulk));
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

std::unique_ptr<net::Packet>
NetIface::makePacket(NodeId dst, HandlerId h,
                     std::span<const std::uint64_t> args,
                     std::span<const std::uint64_t> body, bool bulk)
{
    std::unique_ptr<AmMessage> msg;
    if (spares.empty()) {
        msg = std::make_unique<AmMessage>();
    } else {
        msg = std::move(spares.back());
        spares.pop_back();
    }
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
    } else if (!msg->body.empty()) {
        pkt->addBytes(VolCat::Data,
                      static_cast<std::uint32_t>(8 * msg->body.size()));
    }
    pkt->payload = std::move(msg);
    return pkt;
}

Tick
NetIface::launch(std::unique_ptr<net::Packet> pkt, Tick when)
{
    if (static_cast<const AmMessage &>(*pkt->payload).bulk)
        ++counters_.dmaTransfers;
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

Tick
NetIface::inject(NodeId dst, HandlerId h,
                 std::span<const std::uint64_t> args,
                 std::span<const std::uint64_t> body, bool bulk, Tick when)
{
    return launch(makePacket(dst, h, args, body, bulk), when);
}

std::unique_ptr<AmMessage>
NetIface::popHead()
{
    std::unique_ptr<AmMessage> m = std::move(inq_[qHead_]);
    qHead_ = (qHead_ + 1) & (inq_.size() - 1);
    --queued_;
    mesh_.wake(self_);
    return m;
}

Tick
NetIface::handleHead()
{
    std::unique_ptr<AmMessage> m = popHead();
    const Tick done = runHandler(*m);
    spares.push_back(std::move(m));
    return done;
}

bool
NetIface::receive(net::Packet &pkt)
{
    if (static_cast<int>(queued_) >= cfg_.niInputQueueSlots)
        return false; // the mesh counts the stall
    if (pkt.kind != net::PacketKind::ActiveMessage)
        ALEWIFE_PANIC("non-AM packet delivered to NI at node ", self_);
    if (queued_ == inq_.size()) {
        // Full ring: double it, unrolled so the head lands at slot 0.
        std::vector<std::unique_ptr<AmMessage>> bigger(
            inq_.empty() ? 8 : 2 * inq_.size());
        for (std::size_t i = 0; i < queued_; ++i)
            bigger[i] = std::move(inq_[(qHead_ + i) & (inq_.size() - 1)]);
        inq_ = std::move(bigger);
        qHead_ = 0;
    }
    inq_[(qHead_ + queued_) & (inq_.size() - 1)].reset(
        static_cast<AmMessage *>(pkt.payload.release()));
    ++queued_;
    if (static_cast<int>(queued_) < cfg_.niInputQueueSlots)
        mesh_.wake(self_);

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
    for (const auto &pkt : replies_) {
        const auto &o = static_cast<const AmMessage &>(*pkt->payload);
        cost += cfg_.amSendCycles
                + cfg_.amSendPerWordCycles
                      * static_cast<double>(o.args.size());
        if (o.bulk)
            cost += cfg_.dmaSetupCycles;
    }

    const Tick done = proc_.chargeHandler(cost, TimeCat::MsgOverhead);

    for (auto &pkt : replies_)
        launch(std::move(pkt), done);
    replies_.clear();

    ++delivered_;
    proc_.recheckCond();
    return done;
}

void
NetIface::drainNext()
{
    if (queued_ == 0) {
        drainScheduled_ = false;
        return;
    }
    lastHandlerDone_ = handleHead();
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
    while (queued_ != 0) {
        handleHead();
        ++n;
    }
    return n;
}

} // namespace alewife::msg
