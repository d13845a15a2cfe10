#include "coh/coherence.hh"

#include <algorithm>
#include <ostream>
#include <utility>

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife::coh {


// The protocol hot path schedules lambdas capturing [this, bool, ProtoMsg
// by value]; they must fit the event queue's inline callback buffer or
// every protocol message would silently fall back to a heap allocation.
static_assert(
    EventFn::fitsInline<decltype([p = static_cast<void *>(nullptr),
                                  ex = false, m = ProtoMsg{}]() mutable {
        (void)p, (void)ex, (void)m;
    })>(),
    "ProtoMsg capture exceeds kEventCallbackBytes; bump the constant");

namespace {

/**
 * Typed record for a pending event that holds a ProtoMsg by value.
 * The closure itself is not serializable, so the record carries the
 * message identity (node, type, requester, line) — enough for the
 * checkpoint audit to bit-compare a replayed queue against a captured
 * one; the message *content* is implied by deterministic replay.
 */
EventMeta
protoMeta(EventTag tag, NodeId node, const ProtoMsg &m)
{
    const std::uint64_t a =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
        | (static_cast<std::uint64_t>(m.type) << 32)
        | (static_cast<std::uint64_t>(static_cast<std::uint16_t>(
               m.requester))
           << 48);
    return EventMeta{tag, a, m.lineAddr};
}

/** Record for a fill-completion event (line + exclusivity). */
EventMeta
fillMeta(NodeId node, Addr line, bool ex)
{
    const std::uint64_t a =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
        | (static_cast<std::uint64_t>(ex ? 1 : 0) << 32);
    return EventMeta{EventTag::CohFill, a, line};
}

} // namespace

CoherenceController::CoherenceController(
    NodeId self, EventQueue &eq, const MachineConfig &cfg,
    mem::AddressSpace &mem, mem::Cache &cache, proc::PrefetchBuffer &pfb,
    proc::Proc &proc, net::Mesh &mesh, MachineCounters &counters)
    : self_(self), eq_(eq), cfg_(cfg), mem_(mem), cache_(cache),
      pfb_(pfb), proc_(proc), mesh_(mesh), counters_(counters)
{
}

Addr
CoherenceController::lineOf(Addr a) const
{
    return a & ~static_cast<Addr>(cfg_.lineBytes - 1);
}

std::uint64_t
CoherenceController::lineEpoch(Addr a) const
{
    auto it = epochs_.find(lineOf(a));
    return it == epochs_.end() ? 0 : it->second;
}

void
CoherenceController::debugDump(std::ostream &os) const
{
    for (const auto &[line, m] : mshrs_) {
        os << "  node " << self_ << " MSHR line " << line << " want "
           << (m.wantExclusive ? "X" : "S") << " demands "
           << m.demands.size() << " deferred " << m.deferred.size()
           << "\n";
    }
    for (const auto &[line, e] : dir_.all()) {
        if (!e.busy() && e.queue.empty())
            continue;
        os << "  home " << self_ << " line " << line << " state "
           << static_cast<int>(e.state) << " queue " << e.queue.size();
        if (e.busy()) {
            os << " txn req=" << msgTypeName(e.txn->request) << " from "
               << e.txn->requester << " acks=" << e.txn->pendingAcks
               << " recall=" << e.txn->waitingRecall;
        }
        os << "\n";
    }
}

NodeId
CoherenceController::dirOwner(Addr line)
{
    DirEntry *e = dir_.find(line);
    if (e && e->state == DirState::Modified)
        return e->owner;
    return -1;
}

bool
CoherenceController::debugLocalWord(Addr a, std::uint64_t &out) const
{
    if (cache_.contains(a)) {
        out = cache_.readWord(a);
        return true;
    }
    const Addr line = a & ~static_cast<Addr>(cfg_.lineBytes - 1);
    if (const auto *e = pfb_.find(line)) {
        out = e->words[(a - line) / 8];
        return true;
    }
    return false;
}

void
CoherenceController::bumpEpoch(Addr line)
{
    ++epochs_[line];
    proc_.recheckCond();
}

Tick
CoherenceController::cmmuSlot(double occupancy_cycles)
{
    const Tick start = std::max(eq_.now(), cmmuFreeAt_);
    cmmuFreeAt_ = start + cyclesToTicks(occupancy_cycles);
    return cmmuFreeAt_;
}

// ---------------------------------------------------------------------
// Packet plumbing
// ---------------------------------------------------------------------

std::unique_ptr<net::Packet>
CoherenceController::makePacket(NodeId dst, ProtoMsg msg) const
{
    auto pkt = std::make_unique<net::Packet>();
    pkt->src = self_;
    pkt->dst = dst;
    pkt->kind = net::PacketKind::Coherence;

    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::Recall:
      case MsgType::RecallX:
      case MsgType::RecallNoData:
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::FwdAck:
        pkt->addBytes(VolCat::Requests, cfg_.protoCtrlBytes);
        break;
      case MsgType::Inv:
      case MsgType::InvAck:
        pkt->addBytes(VolCat::Invalidates, cfg_.protoCtrlBytes);
        break;
      case MsgType::WbData:
      case MsgType::WbEvict:
      case MsgType::Data:
      case MsgType::DataX:
        pkt->addBytes(VolCat::Headers, cfg_.protoDataHdrBytes);
        pkt->addBytes(VolCat::Data, cfg_.lineBytes);
        break;
    }

    auto payload = std::make_unique<ProtoMsg>(std::move(msg));
    payload->src = self_;
    pkt->payload = std::move(payload);
    return pkt;
}

void
CoherenceController::sendProto(NodeId dst, ProtoMsg msg, Tick when)
{
    msg.src = self_;
    if (hooks_)
        hooks_->onProtoSend(self_, dst, msg);
    when = std::max(when, eq_.now());
    if (dst == self_) {
        // CMMU-internal: no network traversal, but still serialized
        // through the receive path for occupancy.
        // Hoisted: the capture moves `msg`, and argument evaluation
        // order relative to the capture-init is unspecified.
        const EventMeta meta =
            protoMeta(EventTag::CohLocalDeliver, self_, msg);
        eq_.schedule(when, meta, [this, m = std::move(msg)]() mutable {
            receive(std::move(m));
        });
        return;
    }
    auto pkt = makePacket(dst, std::move(msg));
    if (when == eq_.now()) {
        mesh_.send(std::move(pkt));
    } else {
        auto *raw = pkt.release();
        eq_.schedule(when,
                     EventMeta{EventTag::CohPacketLaunch,
                               reinterpret_cast<std::uintptr_t>(raw), 0},
                     [this, raw]() {
                         mesh_.send(std::unique_ptr<net::Packet>(raw));
                     });
    }
}

// ---------------------------------------------------------------------
// Processor-side fast paths
// ---------------------------------------------------------------------

bool
CoherenceController::tryFastRead(Addr a, std::uint64_t &out)
{
    if (cache_.contains(a)) {
        out = cache_.readWord(a);
        proc_.advance(TimeCat::Compute, cfg_.cacheHitCycles);
        ++counters_.cacheHits;
        return true;
    }
    const Addr line = lineOf(a);
    if (const auto *e = pfb_.find(line); e != nullptr) {
        promoteFromBuffer(line);
        out = cache_.readWord(a);
        proc_.advance(TimeCat::MemWait, cfg_.prefetchBufferHitCycles);
        ++counters_.prefetchesUseful;
        return true;
    }
    return false;
}

bool
CoherenceController::tryFastWrite(Addr a, std::uint64_t v)
{
    if (cache_.state(a) == mem::LineState::Modified) {
        cache_.writeWord(a, v);
        proc_.advance(TimeCat::Compute, cfg_.cacheHitCycles);
        ++counters_.cacheHits;
        return true;
    }
    const Addr line = lineOf(a);
    if (const auto *e = pfb_.find(line);
        e != nullptr && e->st == mem::LineState::Modified) {
        promoteFromBuffer(line);
        cache_.writeWord(a, v);
        proc_.advance(TimeCat::MemWait, cfg_.prefetchBufferHitCycles);
        ++counters_.prefetchesUseful;
        return true;
    }
    return false;
}

bool
CoherenceController::tryFastRmw(
    Addr a, const std::function<std::uint64_t(std::uint64_t)> &fn,
    std::uint64_t &out_old)
{
    if (cache_.state(a) == mem::LineState::Modified) {
        out_old = cache_.readWord(a);
        cache_.writeWord(a, fn(out_old));
        proc_.advance(TimeCat::Compute, cfg_.cacheHitCycles);
        ++counters_.cacheHits;
        return true;
    }
    const Addr line = lineOf(a);
    if (const auto *e = pfb_.find(line);
        e != nullptr && e->st == mem::LineState::Modified) {
        promoteFromBuffer(line);
        out_old = cache_.readWord(a);
        cache_.writeWord(a, fn(out_old));
        proc_.advance(TimeCat::MemWait, cfg_.prefetchBufferHitCycles);
        ++counters_.prefetchesUseful;
        return true;
    }
    return false;
}

void
CoherenceController::promoteFromBuffer(Addr line)
{
    auto e = pfb_.take(line);
    if (!e)
        ALEWIFE_PANIC("promoteFromBuffer: line not buffered");
    installLine(line, e->st, e->words);
}

void
CoherenceController::installLine(Addr line, mem::LineState st,
                                 const std::vector<std::uint64_t> &words)
{
    // A fill supersedes any buffered copy of the same line. Without
    // this, a demand GetX landing in the cache would coexist with a
    // stale Shared buffer entry left by an earlier downgraded
    // exclusive prefetch — and a later recall, finding the cache copy
    // Modified, would never clear the buffered one.
    pfb_.invalidate(line);
    auto victim = cache_.fill(line, st, words);
    if (victim) {
        ProtoMsg wb;
        wb.type = MsgType::WbEvict;
        wb.lineAddr = victim->lineAddr;
        wb.words = std::move(victim->words);
        sendProto(mem_.home(victim->lineAddr), std::move(wb), eq_.now());
        bumpEpoch(victim->lineAddr);
    }
}

// ---------------------------------------------------------------------
// Demand misses and prefetches
// ---------------------------------------------------------------------

CoherenceController::Mshr &
CoherenceController::missTo(Addr line, bool exclusive)
{
    auto it = mshrs_.find(line);
    if (it != mshrs_.end())
        return it->second;
    Mshr &m = mshrs_[line];
    m.line = line;
    m.wantExclusive = exclusive;
    if (hooks_)
        hooks_->onMshrOpen(self_, line, exclusive);
    sendRequest(exclusive ? MsgType::GetX : MsgType::GetS, line);
    ++counters_.cacheMisses;
    if (mem_.home(line) == self_)
        ++counters_.localMisses;
    else
        ++counters_.remoteMisses;
    return m;
}

void
CoherenceController::sendRequest(MsgType t, Addr line)
{
    ProtoMsg msg;
    msg.type = t;
    msg.lineAddr = line;
    msg.requester = self_;
    msg.issuedAt = proc_.localNow();
    const Tick when = proc_.localNow() + cyclesToTicks(cfg_.reqIssueCycles);
    sendProto(mem_.home(line), std::move(msg), when);
}

std::shared_ptr<proc::OpState>
CoherenceController::startRead(Addr a, TimeCat wait_cat)
{
    auto op = std::make_shared<proc::OpState>();
    op->waitCat = wait_cat;
    op->startLocal = proc_.localNow();
    op->stolenAtStart = proc_.stolenTicks();

    const Addr line = lineOf(a);
    DemandWaiter w;
    w.kind = DemandWaiter::Kind::Read;
    w.op = op;
    w.addr = a;

    Mshr &m = missTo(line, false);
    noteDemandJoin(m);
    m.demands.push_back(std::move(w));
    return op;
}

std::shared_ptr<proc::OpState>
CoherenceController::startWrite(Addr a, std::uint64_t v, TimeCat wait_cat)
{
    auto op = std::make_shared<proc::OpState>();
    op->waitCat = wait_cat;
    op->startLocal = proc_.localNow();
    op->stolenAtStart = proc_.stolenTicks();

    const Addr line = lineOf(a);
    auto it = mshrs_.find(line);
    if (it != mshrs_.end() && !it->second.wantExclusive) {
        // A shared-grade fetch is already in flight; re-run this store
        // once it lands (it will then take the upgrade path).
        it->second.deferred.push_back([this, a, v, op]() {
            std::uint64_t dummy = v;
            if (tryFastWrite(a, v)) {
                proc_.completeOp(op, dummy);
                return;
            }
            const Addr l = lineOf(a);
            DemandWaiter w;
            w.kind = DemandWaiter::Kind::Write;
            w.op = op;
            w.addr = a;
            w.storeVal = v;
            Mshr &m = missTo(l, true);
            noteDemandJoin(m);
            m.demands.push_back(std::move(w));
        });
        return op;
    }

    DemandWaiter w;
    w.kind = DemandWaiter::Kind::Write;
    w.op = op;
    w.addr = a;
    w.storeVal = v;

    Mshr &m = missTo(line, true);
    noteDemandJoin(m);
    m.demands.push_back(std::move(w));
    return op;
}

std::shared_ptr<proc::OpState>
CoherenceController::startRmw(Addr a,
                              std::function<std::uint64_t(std::uint64_t)> fn,
                              TimeCat wait_cat)
{
    auto op = std::make_shared<proc::OpState>();
    op->waitCat = wait_cat;
    op->startLocal = proc_.localNow();
    op->stolenAtStart = proc_.stolenTicks();

    const Addr line = lineOf(a);
    auto it = mshrs_.find(line);
    if (it != mshrs_.end() && !it->second.wantExclusive) {
        it->second.deferred.push_back([this, a, fn, op]() {
            const Addr l = lineOf(a);
            if (cache_.state(a) == mem::LineState::Modified) {
                const std::uint64_t old = cache_.readWord(a);
                cache_.writeWord(a, fn(old));
                proc_.completeOp(op, old);
                return;
            }
            DemandWaiter w;
            w.kind = DemandWaiter::Kind::Rmw;
            w.op = op;
            w.addr = a;
            w.rmwFn = fn;
            Mshr &m = missTo(l, true);
            noteDemandJoin(m);
            m.demands.push_back(std::move(w));
        });
        return op;
    }

    DemandWaiter w;
    w.kind = DemandWaiter::Kind::Rmw;
    w.op = op;
    w.addr = a;
    w.rmwFn = std::move(fn);

    Mshr &m = missTo(line, true);
    noteDemandJoin(m);
    m.demands.push_back(std::move(w));
    return op;
}

void
CoherenceController::prefetch(Addr a, bool exclusive)
{
    proc_.advance(TimeCat::MemWait, cfg_.prefetchIssueCycles);
    ++counters_.prefetchesIssued;

    const Addr line = lineOf(a);
    // Already local (cache or buffer, strong enough state)?
    auto cs = cache_.state(a);
    if (cs && (!exclusive || *cs == mem::LineState::Modified)) {
        ++counters_.prefetchesUseless;
        return;
    }
    if (const auto *e = pfb_.find(line);
        e && (!exclusive || e->st == mem::LineState::Modified)) {
        ++counters_.prefetchesUseless;
        return;
    }
    if (mshrs_.count(line)) {
        ++counters_.prefetchesUseless;
        return;
    }
    if (prefetchesInFlight_ >= cfg_.prefetchMaxOutstanding)
        return; // dropped, no state change
    ++prefetchesInFlight_;
    missTo(line, exclusive).startedAsPrefetch = true;
}

void
CoherenceController::noteDemandJoin(Mshr &m)
{
    if (m.startedAsPrefetch && m.prefetchOnly) {
        // The prefetch was in flight when the demand arrived: it hides
        // part of the miss latency.
        ++counters_.prefetchesUseful;
    }
    m.prefetchOnly = false;
}

void
CoherenceController::satisfyDemand(const DemandWaiter &w)
{
    switch (w.kind) {
      case DemandWaiter::Kind::Read:
        proc_.completeOp(w.op, cache_.readWord(w.addr));
        break;
      case DemandWaiter::Kind::Write:
        cache_.writeWord(w.addr, w.storeVal);
        proc_.completeOp(w.op, w.storeVal);
        break;
      case DemandWaiter::Kind::Rmw: {
        const std::uint64_t old = cache_.readWord(w.addr);
        cache_.writeWord(w.addr, w.rmwFn(old));
        proc_.completeOp(w.op, old);
        break;
      }
    }
}

void
CoherenceController::fillArrived(Addr line, bool exclusive,
                                 std::vector<std::uint64_t> words)
{
    auto it = mshrs_.find(line);
    if (it == mshrs_.end())
        ALEWIFE_PANIC("data reply without MSHR, node ", self_, " line ",
                      line);
    if (hooks_)
        hooks_->onFill(self_, line, exclusive);
    Mshr m = std::move(it->second);
    mshrs_.erase(it);
    if (hooks_)
        hooks_->onMshrClose(self_, line);

    const bool pure_prefetch = m.demands.empty() && m.deferred.empty();
    const auto st =
        exclusive ? mem::LineState::Modified : mem::LineState::Shared;

    if (m.startedAsPrefetch)
        --prefetchesInFlight_;

    if (pure_prefetch && m.killedByInv) {
        // An invalidation overtook this prefetch's data reply; its ack
        // is already at the home and the epoch is bumped. Installing
        // the words now would resurrect a copy the directory no
        // longer tracks — drop them instead.
        return;
    }

    if (pure_prefetch && cache_.contains(line) && !m.stashedRecall) {
        // Exclusive prefetch upgrading a line the cache already holds
        // Shared: install straight into the cache. Splitting the line
        // between a Modified buffer entry and a stale Shared cache copy
        // would let recalls miss the cache copy.
        installLine(line, st, words);
        return;
    }

    if (pure_prefetch && !m.stashedRecall) {
        if (pfb_.occupancy() == pfb_.capacity()) {
            auto victim = pfb_.evictOldest();
            if (victim && victim->st == mem::LineState::Modified) {
                ProtoMsg wb;
                wb.type = MsgType::WbEvict;
                wb.lineAddr = victim->lineAddr;
                wb.words = std::move(victim->words);
                sendProto(mem_.home(victim->lineAddr), std::move(wb),
                          eq_.now());
            }
        }
        pfb_.install(line, st, std::move(words));
        return;
    }

    installLine(line, st, words);
    for (const DemandWaiter &w : m.demands)
        satisfyDemand(w);
    for (auto &fn : m.deferred)
        fn();

    // Protocol messages that overtook this fill (possible under 3-hop
    // forwarding, where data rides a different source pair than home
    // traffic) are honoured now, after the ordered-earlier demands.
    // An overtaken pure-prefetch grant lands in the cache (not the
    // prefetch buffer) above precisely so the stashed recall/forward
    // can answer with the data here.
    if (m.stashedRecall) {
        const ProtoMsg &rc = *m.stashedRecall;
        const bool ex = rc.type == MsgType::RecallX
                        || rc.type == MsgType::FwdGetX;
        if (hooks_)
            hooks_->onRecallHonored(self_, line);
        if (rc.type == MsgType::FwdGetS || rc.type == MsgType::FwdGetX)
            cacheForward(rc, ex);
        else
            answerRecall(rc, ex);
    } else if (m.killedByInv) {
        cache_.invalidate(line);
        bumpEpoch(line);
    }
}

// ---------------------------------------------------------------------
// Network receive and home-side protocol
// ---------------------------------------------------------------------

void
CoherenceController::receive(ProtoMsg msg)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX: {
        const Tick at = cmmuSlot(cfg_.homeOccupancyCycles);
        const EventMeta meta = protoMeta(EventTag::CohProcess, self_, msg);
        eq_.schedule(at, meta, [this, m = std::move(msg)]() mutable {
            if (hooks_)
                hooks_->onProtoProcess(self_, m);
            homeRequest(std::move(m));
        });
        break;
      }
      case MsgType::WbData:
      case MsgType::WbEvict: {
        const Tick at = cmmuSlot(cfg_.homeOccupancyCycles);
        const EventMeta meta = protoMeta(EventTag::CohProcess, self_, msg);
        eq_.schedule(at, meta, [this, m = std::move(msg)]() mutable {
            if (hooks_)
                hooks_->onProtoProcess(self_, m);
            homeWriteback(m);
        });
        break;
      }
      case MsgType::RecallNoData: {
        const Tick at = cmmuSlot(cfg_.homeOccupancyCycles);
        const EventMeta meta = protoMeta(EventTag::CohProcess, self_, msg);
        eq_.schedule(at, meta, [this, m = std::move(msg)]() mutable {
            if (hooks_)
                hooks_->onProtoProcess(self_, m);
            // The matching WbEvict is ordered ahead of this message and
            // has already completed the transaction; nothing to do, but
            // verify the invariant.
            DirEntry *e = dir_.find(m.lineAddr);
            if (e && e->busy() && e->txn->id == m.txnId)
                ALEWIFE_PANIC("RecallNoData without preceding writeback");
        });
        break;
      }
      case MsgType::InvAck: {
        const Tick at = cmmuSlot(cfg_.homeOccupancyCycles);
        const EventMeta meta = protoMeta(EventTag::CohProcess, self_, msg);
        eq_.schedule(at, meta, [this, m = std::move(msg)]() mutable {
            if (hooks_)
                hooks_->onProtoProcess(self_, m);
            homeInvAck(m);
        });
        break;
      }
      case MsgType::Inv: {
        const Tick at = cmmuSlot(cfg_.invProcessCycles);
        const EventMeta meta = protoMeta(EventTag::CohProcess, self_, msg);
        eq_.schedule(at, meta, [this, m = std::move(msg)]() mutable {
            if (hooks_)
                hooks_->onProtoProcess(self_, m);
            cacheInv(m);
        });
        break;
      }
      case MsgType::Recall:
      case MsgType::RecallX: {
        const bool ex = msg.type == MsgType::RecallX;
        const Tick at = cmmuSlot(cfg_.invProcessCycles);
        const EventMeta meta = protoMeta(EventTag::CohProcess, self_, msg);
        eq_.schedule(at, meta, [this, ex, m = std::move(msg)]() mutable {
            if (hooks_)
                hooks_->onProtoProcess(self_, m);
            cacheRecall(m, ex);
        });
        break;
      }
      case MsgType::FwdGetS:
      case MsgType::FwdGetX: {
        const bool ex = msg.type == MsgType::FwdGetX;
        const Tick at = cmmuSlot(cfg_.invProcessCycles);
        const EventMeta meta = protoMeta(EventTag::CohProcess, self_, msg);
        eq_.schedule(at, meta, [this, ex, m = std::move(msg)]() mutable {
            if (hooks_)
                hooks_->onProtoProcess(self_, m);
            cacheForward(m, ex);
        });
        break;
      }
      case MsgType::FwdAck: {
        const Tick at = cmmuSlot(cfg_.homeOccupancyCycles);
        const EventMeta meta = protoMeta(EventTag::CohProcess, self_, msg);
        eq_.schedule(at, meta, [this, m = std::move(msg)]() mutable {
            if (hooks_)
                hooks_->onProtoProcess(self_, m);
            homeFwdAck(m);
        });
        break;
      }
      case MsgType::Data:
      case MsgType::DataX: {
        const bool ex = msg.type == MsgType::DataX;
        const Tick at = eq_.now() + cyclesToTicks(cfg_.replyConsumeCycles);
        const EventMeta meta = fillMeta(self_, msg.lineAddr, ex);
        eq_.schedule(at, meta, [this, ex, m = std::move(msg)]() mutable {
            fillArrived(m.lineAddr, ex, std::move(m.words));
        });
        break;
      }
    }
}

double
CoherenceController::limitlessCost(const DirEntry &e)
{
    const int extra =
        static_cast<int>(e.sharers.size()) - cfg_.dirHwPointers;
    if (extra <= 0)
        return 0.0;
    ++counters_.limitlessTraps;
    return cfg_.limitlessTrapCycles + extra * cfg_.limitlessPerSharerCycles;
}

void
CoherenceController::homeRequest(ProtoMsg msg)
{
    DirEntry &e = dir_.entry(msg.lineAddr);
    if (e.busy()) {
        e.queue.push_back(std::move(msg));
        return;
    }
    const Addr line = msg.lineAddr;
    homeServe(msg);
    // The request may have completed without opening a transaction
    // (e.g. GetS on a Shared line); keep draining any queued peers.
    homeMaybeDrain(line);
}

void
CoherenceController::homeMaybeDrain(Addr line)
{
    DirEntry &e = dir_.entry(line);
    if (e.busy() || e.queue.empty())
        return;
    ProtoMsg next = std::move(e.queue.front());
    e.queue.pop_front();
    const Tick at = cmmuSlot(cfg_.homeOccupancyCycles);
    const EventMeta meta = protoMeta(EventTag::CohHomeDrain, self_, next);
    eq_.schedule(at, meta, [this, m = std::move(next)]() mutable {
        homeRequest(std::move(m));
    });
}

void
CoherenceController::homeServe(const ProtoMsg &msg)
{
    DirEntry &e = dir_.entry(msg.lineAddr);
    const Addr line = msg.lineAddr;
    const NodeId req = msg.requester;
    Tick reply_at = eq_.now();

    // Local requesters see the configured local miss penalty end to end.
    auto local_floor = [&](Tick t) {
        if (req == self_)
            return std::max(t, msg.issuedAt
                                   + cyclesToTicks(cfg_.localMissCycles));
        return t;
    };

    auto line_words = [&]() {
        std::vector<std::uint64_t> words(mem_.wordsPerLine());
        for (std::uint32_t i = 0; i < words.size(); ++i)
            words[i] = mem_.loadWord(line + 8 * i);
        return words;
    };

    auto reply = [&](MsgType t, Tick when) {
        ProtoMsg r;
        r.type = t;
        r.lineAddr = line;
        r.requester = req;
        r.words = line_words();
        Tick dispatch = when;
        if (req == self_) {
            const bool ex = t == MsgType::DataX;
            dispatch = local_floor(when);
            if (hooks_)
                hooks_->onLocalGrant(self_, line, ex);
            eq_.schedule(dispatch, fillMeta(self_, line, ex),
                         [this, line, ex, w = std::move(r.words)]() mutable {
                             fillArrived(line, ex, std::move(w));
                         });
        } else {
            sendProto(req, std::move(r), when);
        }
        // A grant whose reply leaves later than now (LimitLESS trap,
        // local-miss floor) must hold the line busy until dispatch:
        // serving another request meanwhile could inject a Recall that
        // overtakes the granted data.
        if (dispatch > eq_.now()) {
            DirTxn hold;
            hold.request = msg.type;
            hold.requester = req;
            hold.id = nextTxnId_++;
            e.txn = hold;
            if (hooks_)
                hooks_->onTxnOpen(self_, line, *e.txn);
            eq_.schedule(dispatch,
                         EventMeta{EventTag::CohHomeComplete,
                                   static_cast<std::uint64_t>(
                                       static_cast<std::uint32_t>(self_)),
                                   line},
                         [this, line]() { homeComplete(line); });
        }
    };

    if (msg.type == MsgType::GetS) {
        switch (e.state) {
          case DirState::Uncached:
            e.state = DirState::Shared;
            e.sharers = {req};
            reply(MsgType::Data, reply_at);
            return;
          case DirState::Shared: {
            e.addSharer(req);
            const double trap = limitlessCost(e);
            if (trap > 0.0)
                reply_at = proc_.chargeHandler(trap, TimeCat::MsgOverhead);
            reply(MsgType::Data, reply_at);
            return;
          }
          case DirState::Modified: {
            if (e.owner == req)
                ALEWIFE_PANIC("GetS from recorded owner, line ", line);
            DirTxn txn;
            txn.request = MsgType::GetS;
            txn.requester = req;
            txn.waitingRecall = true;
            txn.forwarded = cfg_.threeHopForwarding;
            txn.id = nextTxnId_++;
            e.txn = txn;
            if (hooks_)
                hooks_->onTxnOpen(self_, line, txn);
            ProtoMsg rc;
            rc.type = txn.forwarded ? MsgType::FwdGetS : MsgType::Recall;
            rc.lineAddr = line;
            rc.requester = req;
            rc.txnId = txn.id;
            sendProto(e.owner, std::move(rc), reply_at);
            return;
          }
        }
    }

    if (msg.type == MsgType::GetX) {
        switch (e.state) {
          case DirState::Uncached:
            e.state = DirState::Modified;
            e.owner = req;
            reply(MsgType::DataX, reply_at);
            return;
          case DirState::Shared: {
            const double trap = limitlessCost(e);
            if (trap > 0.0)
                reply_at = proc_.chargeHandler(trap, TimeCat::MsgOverhead);
            std::vector<NodeId> to_inv;
            for (NodeId s : e.sharers) {
                if (s != req)
                    to_inv.push_back(s);
            }
            if (to_inv.empty()) {
                e.state = DirState::Modified;
                e.owner = req;
                e.sharers.clear();
                reply(MsgType::DataX, reply_at);
                return;
            }
            DirTxn txn;
            txn.request = MsgType::GetX;
            txn.requester = req;
            txn.pendingAcks = static_cast<int>(to_inv.size());
            txn.id = nextTxnId_++;
            e.txn = txn;
            if (hooks_)
                hooks_->onTxnOpen(self_, line, txn);
            for (NodeId s : to_inv) {
                ProtoMsg inv;
                inv.type = MsgType::Inv;
                inv.lineAddr = line;
                inv.requester = req;
                inv.txnId = txn.id;
                sendProto(s, std::move(inv), reply_at);
                ++counters_.invalidationsSent;
            }
            return;
          }
          case DirState::Modified: {
            if (e.owner == req)
                ALEWIFE_PANIC("GetX from recorded owner, line ", line);
            DirTxn txn;
            txn.request = MsgType::GetX;
            txn.requester = req;
            txn.waitingRecall = true;
            txn.forwarded = cfg_.threeHopForwarding;
            txn.id = nextTxnId_++;
            e.txn = txn;
            if (hooks_)
                hooks_->onTxnOpen(self_, line, txn);
            ProtoMsg rc;
            rc.type = txn.forwarded ? MsgType::FwdGetX : MsgType::RecallX;
            rc.lineAddr = line;
            rc.requester = req;
            rc.txnId = txn.id;
            sendProto(e.owner, std::move(rc), reply_at);
            return;
          }
        }
    }

    ALEWIFE_PANIC("homeServe: unexpected ", msgTypeName(msg.type));
}

void
CoherenceController::homeWriteback(const ProtoMsg &msg)
{
    DirEntry &e = dir_.entry(msg.lineAddr);
    const Addr line = msg.lineAddr;

    // Commit the written-back data.
    for (std::uint32_t i = 0; i < msg.words.size(); ++i)
        mem_.storeWord(line + 8 * i, msg.words[i]);

    if (e.busy() && e.txn->waitingRecall) {
        // This writeback satisfies the outstanding recall (either the
        // explicit WbData response or a racing eviction's WbEvict).
        const DirTxn txn = *e.txn;
        const NodeId old_owner = e.owner;
        // In the forwarded variant the owner already shipped the line
        // to the requester; the home only commits state. If the owner
        // had evicted (WbEvict beat the forward), fall back to a
        // home-sourced reply exactly as in the recall protocol.
        const bool need_reply =
            !txn.forwarded || msg.type == MsgType::WbEvict;
        ProtoMsg r;
        r.lineAddr = line;
        r.requester = txn.requester;
        r.words = msg.words;
        if (txn.request == MsgType::GetS) {
            e.state = DirState::Shared;
            e.sharers.clear();
            // The old owner keeps a Shared copy only if it actually
            // answered the recall (WbData); an eviction means it's gone.
            if (msg.type == MsgType::WbData)
                e.sharers.push_back(old_owner);
            e.sharers.push_back(txn.requester);
            r.type = MsgType::Data;
        } else {
            e.state = DirState::Modified;
            e.owner = txn.requester;
            e.sharers.clear();
            r.type = MsgType::DataX;
        }
        if (need_reply) {
            if (txn.requester == self_) {
                const bool ex = r.type == MsgType::DataX;
                if (hooks_)
                    hooks_->onLocalGrant(self_, line, ex);
                eq_.schedule(
                    eq_.now(), fillMeta(self_, line, ex),
                    [this, line, ex, w = std::move(r.words)]() mutable {
                        fillArrived(line, ex, std::move(w));
                    });
            } else {
                sendProto(txn.requester, std::move(r), eq_.now());
            }
        }
        homeComplete(line);
        return;
    }

    // Plain victim writeback.
    if (e.state == DirState::Modified && e.owner == msg.src) {
        e.state = DirState::Uncached;
        e.owner = -1;
        return;
    }
    ALEWIFE_PANIC("unexpected writeback from ", msg.src, " line ", line,
                  " state ", static_cast<int>(e.state));
}

void
CoherenceController::homeInvAck(const ProtoMsg &msg)
{
    DirEntry &e = dir_.entry(msg.lineAddr);
    if (!e.busy() || e.txn->request != MsgType::GetX
        || e.txn->pendingAcks <= 0) {
        ALEWIFE_PANIC("stray InvAck for line ", msg.lineAddr);
    }
    if (--e.txn->pendingAcks > 0)
        return;

    const NodeId req = e.txn->requester;
    e.state = DirState::Modified;
    e.owner = req;
    e.sharers.clear();

    ProtoMsg r;
    r.type = MsgType::DataX;
    r.lineAddr = msg.lineAddr;
    r.requester = req;
    r.words.resize(mem_.wordsPerLine());
    for (std::uint32_t i = 0; i < r.words.size(); ++i)
        r.words[i] = mem_.loadWord(msg.lineAddr + 8 * i);

    if (req == self_) {
        const Addr line = msg.lineAddr;
        if (hooks_)
            hooks_->onLocalGrant(self_, line, true);
        eq_.schedule(eq_.now(), fillMeta(self_, line, true),
                     [this, line, w = std::move(r.words)]() mutable {
                         fillArrived(line, true, std::move(w));
                     });
    } else {
        sendProto(req, std::move(r), eq_.now());
    }
    homeComplete(msg.lineAddr);
}

void
CoherenceController::homeComplete(Addr line)
{
    DirEntry &e = dir_.entry(line);
    if (hooks_)
        hooks_->onTxnClose(self_, line);
    e.txn.reset();
    homeMaybeDrain(line);
}

// ---------------------------------------------------------------------
// Remote-cache side
// ---------------------------------------------------------------------

void
CoherenceController::cacheInv(const ProtoMsg &msg)
{
    const Addr line = msg.lineAddr;
    const bool skipInv = faults_.skipInvalidate && !faultFired_;
    if (skipInv)
        faultFired_ = true;
    if (!skipInv) {
        auto dirty = cache_.invalidate(line);
        if (dirty)
            ALEWIFE_PANIC("Inv hit a Modified line at node ", self_);
        pfb_.invalidate(line);
        if (auto it = mshrs_.find(line);
            it != mshrs_.end() && !it->second.wantExclusive) {
            // The invalidation overtook a data reply still in flight
            // (different source pairs under 3-hop forwarding): remember
            // to drop the line right after the fill satisfies the
            // demands that were ordered before this invalidation.
            it->second.killedByInv = true;
        }
        bumpEpoch(line);
    }

    if (faults_.dropInvAck && !faultFired_) {
        faultFired_ = true;
        return; // swallow the ack: the home's txn never closes
    }
    ProtoMsg ack;
    ack.type = MsgType::InvAck;
    ack.lineAddr = line;
    ack.requester = msg.requester;
    ack.txnId = msg.txnId;
    sendProto(mem_.home(line), std::move(ack), eq_.now());
}

void
CoherenceController::cacheRecall(const ProtoMsg &msg, bool exclusive)
{
    const Addr line = msg.lineAddr;
    ProtoMsg resp;
    resp.lineAddr = line;
    resp.requester = msg.requester;
    resp.txnId = msg.txnId;

    if (cache_.state(line) == mem::LineState::Modified) {
        if (exclusive) {
            auto words = cache_.invalidate(line);
            resp.type = MsgType::WbData;
            resp.words = std::move(*words);
            bumpEpoch(line);
        } else {
            auto words = cache_.downgrade(line);
            resp.type = MsgType::WbData;
            resp.words = std::move(*words);
        }
        sendProto(mem_.home(line), std::move(resp), eq_.now());
        return;
    }

    if (const auto *e = pfb_.find(line);
        e && e->st == mem::LineState::Modified) {
        resp.type = MsgType::WbData;
        resp.words = e->words;
        if (exclusive) {
            pfb_.invalidate(line);
            // Defensive: drop any coexisting cache copy too.
            cache_.invalidate(line);
            bumpEpoch(line);
        } else {
            pfb_.downgrade(line);
        }
        sendProto(mem_.home(line), std::move(resp), eq_.now());
        return;
    }

    // Not present. Either the line was evicted (WbEvict ordered ahead
    // of this response) or — under 3-hop forwarding — the recall
    // overtook our own granted data, which is still in flight: honour
    // the recall right after the fill.
    if (auto it = mshrs_.find(line);
        it != mshrs_.end() && it->second.wantExclusive) {
        ProtoMsg stash = msg;
        stash.type = exclusive ? MsgType::RecallX : MsgType::Recall;
        it->second.stashedRecall = std::move(stash);
        if (hooks_)
            hooks_->onRecallStashed(self_, line);
        return;
    }
    resp.type = MsgType::RecallNoData;
    sendProto(mem_.home(line), std::move(resp), eq_.now());
}

void
CoherenceController::answerRecall(const ProtoMsg &msg, bool exclusive)
{
    const Addr line = msg.lineAddr;
    ProtoMsg resp;
    resp.lineAddr = line;
    resp.requester = msg.requester;
    resp.txnId = msg.txnId;
    resp.type = MsgType::WbData;
    if (exclusive) {
        auto words = cache_.invalidate(line);
        if (!words)
            ALEWIFE_PANIC("answerRecall: line vanished at ", self_);
        resp.words = std::move(*words);
        bumpEpoch(line);
    } else {
        auto words = cache_.downgrade(line);
        if (!words)
            ALEWIFE_PANIC("answerRecall: line not Modified at ", self_);
        resp.words = std::move(*words);
    }
    sendProto(mem_.home(line), std::move(resp), eq_.now());
}

void
CoherenceController::cacheForward(const ProtoMsg &msg, bool exclusive)
{
    const Addr line = msg.lineAddr;

    auto ship = [&](std::vector<std::uint64_t> words) {
        // Data straight to the requester (the 3-hop shortcut)...
        ProtoMsg d;
        d.type = exclusive ? MsgType::DataX : MsgType::Data;
        d.lineAddr = line;
        d.requester = msg.requester;
        d.words = words;
        sendProto(msg.requester, std::move(d), eq_.now());
        // ...and the home's confirmation: dirty data for a downgrade
        // (memory must be refreshed), a plain ack for a handoff.
        if (exclusive) {
            ProtoMsg a;
            a.type = MsgType::FwdAck;
            a.lineAddr = line;
            a.requester = msg.requester;
            a.txnId = msg.txnId;
            sendProto(mem_.home(line), std::move(a), eq_.now());
        } else {
            ProtoMsg wb;
            wb.type = MsgType::WbData;
            wb.lineAddr = line;
            wb.requester = msg.requester;
            wb.txnId = msg.txnId;
            wb.words = std::move(words);
            sendProto(mem_.home(line), std::move(wb), eq_.now());
        }
    };

    if (cache_.state(line) == mem::LineState::Modified) {
        if (exclusive) {
            auto words = cache_.invalidate(line);
            bumpEpoch(line);
            ship(std::move(*words));
        } else {
            auto words = cache_.downgrade(line);
            ship(std::move(*words));
        }
        return;
    }
    if (const auto *e = pfb_.find(line);
        e && e->st == mem::LineState::Modified) {
        std::vector<std::uint64_t> words = e->words;
        if (exclusive) {
            pfb_.invalidate(line);
            cache_.invalidate(line);
            bumpEpoch(line);
        } else {
            pfb_.downgrade(line);
        }
        ship(std::move(words));
        return;
    }
    if (auto it = mshrs_.find(line);
        it != mshrs_.end() && it->second.wantExclusive) {
        // The forward overtook our own granted data; honour it after
        // the fill (same stash as a recall).
        ProtoMsg stash = msg;
        stash.type = exclusive ? MsgType::FwdGetX : MsgType::FwdGetS;
        it->second.stashedRecall = std::move(stash);
        if (hooks_)
            hooks_->onRecallStashed(self_, line);
        return;
    }
    // Evicted: the WbEvict is ordered ahead at the home, which falls
    // back to a home-sourced reply; just tell it we had nothing.
    ProtoMsg resp;
    resp.lineAddr = line;
    resp.requester = msg.requester;
    resp.txnId = msg.txnId;
    resp.type = MsgType::RecallNoData;
    sendProto(mem_.home(line), std::move(resp), eq_.now());
}

void
CoherenceController::homeFwdAck(const ProtoMsg &msg)
{
    DirEntry &e = dir_.entry(msg.lineAddr);
    if (!e.busy() || !e.txn->forwarded || e.txn->id != msg.txnId)
        ALEWIFE_PANIC("stray FwdAck for line ", msg.lineAddr);
    e.state = DirState::Modified;
    e.owner = e.txn->requester;
    e.sharers.clear();
    homeComplete(msg.lineAddr);
}

} // namespace alewife::coh
