#include "ckpt/access.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "coh/proto.hh"
#include "exp/result_cache.hh"
#include "machine/machine.hh"
#include "sim/logging.hh"

namespace alewife::ckpt {

namespace {

using exp::Json;

/** Shorthand for the canonical 64-bit-word encoding. */
Json
hx(std::uint64_t v)
{
    return Json(hexU64(v));
}

/** Doubles are captured as their bit pattern: equality must be exact. */
Json
hxd(double d)
{
    return Json(hexU64(std::bit_cast<std::uint64_t>(d)));
}

Json
wordsJson(const std::vector<std::uint64_t> &words)
{
    Json a = Json::array();
    for (std::uint64_t w : words)
        a.push(hx(w));
    return a;
}

Json
rngJson(const Rng::State &st)
{
    Json o = Json::object();
    Json s = Json::array();
    for (std::uint64_t w : st.s)
        s.push(hx(w));
    o.set("s", std::move(s));
    o.set("haveSpare", Json(st.haveSpare));
    o.set("spare", hxd(st.spare));
    return o;
}

Json
protoMsgJson(const coh::ProtoMsg &m)
{
    Json o = Json::object();
    o.set("type", Json(static_cast<int>(m.type)));
    o.set("typeName", Json(coh::msgTypeName(m.type)));
    o.set("line", hx(m.lineAddr));
    o.set("requester", Json(static_cast<int>(m.requester)));
    o.set("txnId", hx(m.txnId));
    o.set("src", Json(static_cast<int>(m.src)));
    o.set("issuedAt", hx(m.issuedAt));
    o.set("words", wordsJson(m.words));
    return o;
}

Json
amJson(const msg::AmMessage &m)
{
    Json o = Json::object();
    o.set("handler", Json(static_cast<int>(m.handler)));
    o.set("src", Json(static_cast<int>(m.src)));
    o.set("args", wordsJson(m.args));
    o.set("body", wordsJson(m.body));
    o.set("bulk", Json(m.bulk));
    return o;
}

/**
 * Canonical content of an in-flight packet. Pointers never reach the
 * snapshot: the Packet sits inside a pending event's closure and is
 * reached through EventMeta::a, then expanded here.
 */
Json
packetJson(const net::Packet &p)
{
    Json o = Json::object();
    o.set("src", Json(static_cast<int>(p.src)));
    o.set("dst", Json(static_cast<int>(p.dst)));
    o.set("kind", Json(static_cast<int>(p.kind)));
    o.set("sizeBytes", Json(static_cast<int>(p.sizeBytes)));
    o.set("id", hx(p.id));
    Json vols = Json::array();
    for (std::uint32_t b : p.volBytes)
        vols.push(Json(static_cast<int>(b)));
    o.set("volBytes", std::move(vols));
    o.set("countInVolume", Json(p.countInVolume));
    if (p.kind == net::PacketKind::Coherence)
        o.set("proto",
              protoMsgJson(static_cast<const coh::ProtoMsg &>(*p.payload)));
    else if (p.kind == net::PacketKind::ActiveMessage)
        o.set("am",
              amJson(static_cast<const msg::AmMessage &>(*p.payload)));
    return o;
}

/** True for tags whose EventMeta::a is an in-flight net::Packet*. */
bool
carriesPacket(EventTag t)
{
    switch (t) {
      case EventTag::MeshDeliver:
      case EventTag::MeshDeliverIdeal:
      case EventTag::MeshRetry:
      case EventTag::CohPacketLaunch:
      case EventTag::AmPacketLaunch:
        return true;
      default:
        return false;
    }
}

Json
opStateJson(const proc::OpState &op)
{
    Json o = Json::object();
    o.set("done", Json(op.done));
    o.set("value", hx(op.value));
    o.set("waitCat", Json(static_cast<int>(op.waitCat)));
    o.set("startLocal", hx(op.startLocal));
    o.set("stolenAtStart", hx(op.stolenAtStart));
    return o;
}

/** Sorted key list of an unordered_map (canonical iteration order). */
template <typename Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &m)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

Json
Access::configSection(const Machine &m)
{
    Json o = Json::object();
    o.set("key", Json(m.cfg_.canonicalKey()));
    o.set("name", Json(m.cfg_.name));
    o.set("nodes", Json(m.cfg_.nodes()));
    o.set("syncStyle", Json(static_cast<int>(m.sync_->style_)));
    return o;
}

Json
Access::kernelSection(const Machine &m)
{
    const EventQueue &eq = m.eq_;
    Json o = Json::object();
    o.set("now", hx(eq.now_));
    o.set("seq", hx(eq.seq_));
    o.set("executed", hx(eq.eventsExecuted()));
    o.set("tieBreak", Json(eq.tieBreak_));
    o.set("rng", rngJson(eq.rng_.state()));
    o.set("finishTick", hx(m.finishTick_));
    return o;
}

Json
Access::eventsSection(const Machine &m, std::vector<std::string> &errors)
{
    std::vector<EventQueue::PendingEvent> pending;
    m.eq_.forEachPending(
        [&](const EventQueue::PendingEvent &e) { pending.push_back(e); });
    std::sort(pending.begin(), pending.end(),
              [](const EventQueue::PendingEvent &a,
                 const EventQueue::PendingEvent &b) {
                  return a.seq < b.seq;
              });

    Json arr = Json::array();
    for (const EventQueue::PendingEvent &e : pending) {
        if (e.meta.tag == EventTag::Untagged) {
            std::string site = e.siteFile
                                   ? (std::string(e.siteFile) + ":" +
                                      std::to_string(e.siteLine))
                                   : std::string("<unknown site>");
            errors.push_back(
                "pending untagged event scheduled at " + site +
                " (fires at tick " + std::to_string(e.when) +
                ") — tag the schedule call with an EventMeta "
                "(sim/event_tag.hh) to make it checkpointable");
            continue;
        }
        Json o = Json::object();
        o.set("when", hx(e.when));
        o.set("pri", hx(e.pri));
        o.set("seq", hx(e.seq));
        o.set("tag", Json(eventTagName(e.meta.tag)));
        if (carriesPacket(e.meta.tag)) {
            const auto *pkt =
                reinterpret_cast<const net::Packet *>(e.meta.a);
            o.set("packet", packetJson(*pkt));
            o.set("b", hx(e.meta.b));
        } else {
            o.set("a", hx(e.meta.a));
            o.set("b", hx(e.meta.b));
        }
        arr.push(std::move(o));
    }
    return arr;
}

Json
Access::meshSection(const Machine &m)
{
    const net::Mesh &mesh = *m.mesh_;
    Json o = Json::object();

    Json links = Json::array();
    for (const net::Mesh::Link &l : mesh.linkStats()) {
        Json lo = Json::object();
        lo.set("freeAt", hx(l.freeAt));
        lo.set("busyTicks", hx(l.busyTicks));
        lo.set("bytes", hx(l.bytes));
        links.push(std::move(lo));
    }
    o.set("links", std::move(links));

    Json vol = Json::array();
    for (std::uint64_t b : mesh.volume_.bytes)
        vol.push(hx(b));
    o.set("volume", std::move(vol));

    o.set("injected", hx(mesh.injected_));
    o.set("delivered", hx(mesh.delivered_));
    o.set("niRejects", hx(mesh.niRejects()));
    o.set("bisectionBytes", hx(mesh.bisectionBytes_));
    o.set("nextId", hx(mesh.nextId_));
    o.set("jitterFrac", hxd(mesh.jitterFrac_));
    o.set("jitterRng", rngJson(mesh.jitterRng_.state()));
    return o;
}

Json
Access::parkedSection(const Machine &m)
{
    const EventQueue &eq = m.eq_;
    Json o = Json::object();
    o.set("period", hx(eq.pollPeriod()));
    Json arr = Json::array();
    eq.forEachParked([&](const EventQueue::ParkedPoller &p) {
        Json po = Json::object();
        po.set("origin", hx(p.origin));
        po.set("base", hx(p.base));
        po.set("key", hx(p.key));
        po.set("armed", Json(p.armed));
        po.set("packet", packetJson(*reinterpret_cast<const net::Packet *>(
                             p.meta.a)));
        po.set("b", hx(p.meta.b));
        arr.push(std::move(po));
    });
    o.set("pollers", std::move(arr));
    return o;
}

Json
Access::memorySection(const Machine &m)
{
    const mem::AddressSpace &mem = *m.mem_;
    Json o = Json::object();
    o.set("nextBase", hx(mem.nextBase_));

    Json regions = Json::array();
    for (const auto &r : mem.regions_) {
        Json ro = Json::object();
        ro.set("base", hx(r.base));
        ro.set("words", hx(r.words));
        ro.set("policy", Json(static_cast<int>(r.policy)));
        ro.set("fixedNode", Json(static_cast<int>(r.fixedNode)));
        ro.set("label", Json(r.label));
        regions.push(std::move(ro));
    }
    o.set("regions", std::move(regions));

    // The full backing store, word by word. This is the bulk of a
    // snapshot and the payload the checkpoint throughput benchmark
    // measures; everything else is bookkeeping around it.
    o.set("store", wordsJson(mem.store_));
    return o;
}

Json
Access::cachesSection(const Machine &m)
{
    Json nodes = Json::array();
    for (const auto &n : m.nodes_) {
        const mem::Cache &c = n->cache;
        Json lines = Json::array();
        for (std::size_t i = 0; c.lines_ && i < c.numSets_; ++i) {
            const auto &l = c.lines_[i];
            if (!l.valid)
                continue;
            Json lo = Json::object();
            lo.set("set", Json(static_cast<int>(i)));
            lo.set("line", hx(l.tag));
            lo.set("st", Json(static_cast<int>(l.st)));
            lo.set("words", wordsJson(c.copyWords(l)));
            lines.push(std::move(lo));
        }
        nodes.push(std::move(lines));
    }
    return nodes;
}

Json
Access::pfbSection(const Machine &m)
{
    Json nodes = Json::array();
    for (const auto &n : m.nodes_) {
        const proc::PrefetchBuffer &b = n->pfb;
        Json o = Json::object();
        o.set("fifoNext", hx(b.fifoNext_));
        Json slots = Json::array();
        for (const auto &s : b.slots_) {
            Json so = Json::object();
            so.set("valid", Json(s.valid));
            so.set("line", hx(s.lineAddr));
            so.set("st", Json(static_cast<int>(s.st)));
            so.set("words", wordsJson(s.words));
            slots.push(std::move(so));
        }
        o.set("slots", std::move(slots));
        nodes.push(std::move(o));
    }
    return nodes;
}

Json
Access::cohSection(const Machine &m)
{
    Json nodes = Json::array();
    for (const auto &n : m.nodes_) {
        const coh::CoherenceController &cc = *n->coh;
        Json o = Json::object();

        Json dir = Json::array();
        for (Addr line : sortedKeys(cc.dir_.entries_)) {
            const coh::DirEntry &e = cc.dir_.entries_.at(line);
            Json eo = Json::object();
            eo.set("line", hx(line));
            eo.set("state", Json(static_cast<int>(e.state)));
            Json sharers = Json::array();
            for (NodeId s : e.sharers)
                sharers.push(Json(static_cast<int>(s)));
            eo.set("sharers", std::move(sharers));
            eo.set("owner", Json(static_cast<int>(e.owner)));
            if (e.txn) {
                Json to = Json::object();
                to.set("request", Json(static_cast<int>(e.txn->request)));
                to.set("requester",
                       Json(static_cast<int>(e.txn->requester)));
                to.set("pendingAcks", Json(e.txn->pendingAcks));
                to.set("waitingRecall", Json(e.txn->waitingRecall));
                to.set("forwarded", Json(e.txn->forwarded));
                to.set("id", hx(e.txn->id));
                eo.set("txn", std::move(to));
            }
            Json queue = Json::array();
            for (const coh::ProtoMsg &q : e.queue)
                queue.push(protoMsgJson(q));
            eo.set("queue", std::move(queue));
            dir.push(std::move(eo));
        }
        o.set("dir", std::move(dir));

        Json mshrs = Json::array();
        for (Addr line : sortedKeys(cc.mshrs_)) {
            const auto &ms = cc.mshrs_.at(line);
            Json mo = Json::object();
            mo.set("line", hx(line));
            mo.set("wantExclusive", Json(ms.wantExclusive));
            mo.set("prefetchOnly", Json(ms.prefetchOnly));
            mo.set("startedAsPrefetch", Json(ms.startedAsPrefetch));
            mo.set("killedByInv", Json(ms.killedByInv));
            if (ms.stashedRecall)
                mo.set("stashedRecall", protoMsgJson(*ms.stashedRecall));
            Json demands = Json::array();
            for (const auto &d : ms.demands) {
                Json dj = Json::object();
                dj.set("kind", Json(static_cast<int>(d.kind)));
                dj.set("addr", hx(d.addr));
                dj.set("storeVal", hx(d.storeVal));
                // Closures (rmwFn, deferred retries) cannot be
                // serialized; their presence plus the deterministic
                // replay pins them down.
                dj.set("hasRmw", Json(static_cast<bool>(d.rmwFn)));
                dj.set("op", opStateJson(*d.op));
                demands.push(std::move(dj));
            }
            mo.set("demands", std::move(demands));
            mo.set("deferred", Json(static_cast<int>(ms.deferred.size())));
            mshrs.push(std::move(mo));
        }
        o.set("mshrs", std::move(mshrs));

        Json epochs = Json::array();
        for (Addr line : sortedKeys(cc.epochs_)) {
            Json eo = Json::object();
            eo.set("line", hx(line));
            eo.set("epoch", hx(cc.epochs_.at(line)));
            epochs.push(std::move(eo));
        }
        o.set("epochs", std::move(epochs));

        o.set("cmmuFreeAt", hx(cc.cmmuFreeAt_));
        o.set("nextTxnId", hx(cc.nextTxnId_));
        o.set("prefetchesInFlight", Json(cc.prefetchesInFlight_));
        o.set("faultFired", Json(cc.faultFired_));
        nodes.push(std::move(o));
    }
    return nodes;
}

Json
Access::procsSection(const Machine &m)
{
    Json nodes = Json::array();
    for (const auto &n : m.nodes_) {
        const proc::Proc &p = n->proc;
        Json o = Json::object();
        o.set("state", Json(static_cast<int>(p.state_)));
        o.set("localNow", hx(p.localNow_));
        o.set("ahead", hx(p.ahead_));
        o.set("stolen", hx(p.stolen_));
        Json bd = Json::array();
        for (Tick t : p.breakdown_.ticks)
            bd.push(hx(t));
        o.set("breakdown", std::move(bd));
        o.set("resumePending", Json(p.resumeEvent_.pending()));
        o.set("resumeAt", hx(p.resumeAt_));
        o.set("computeUntil", hx(p.computeUntil_));
        if (p.currentOp_)
            o.set("op", opStateJson(*p.currentOp_));
        if (p.cond_) {
            Json co = Json::object();
            co.set("cat", Json(static_cast<int>(p.cond_->cat)));
            co.set("startLocal", hx(p.cond_->startLocal));
            co.set("stolenAtStart", hx(p.cond_->stolenAtStart));
            o.set("cond", std::move(co));
        }
        nodes.push(std::move(o));
    }
    return nodes;
}

Json
Access::syncSection(const Machine &m)
{
    const proc::SyncSystem &s = *m.sync_;
    Json o = Json::object();
    o.set("style", Json(static_cast<int>(s.style_)));
    o.set("nprocs", Json(s.nprocs_));
    o.set("arity", Json(s.arity_));
    o.set("arriveBase", hx(s.arriveBase_));
    o.set("releaseBase", hx(s.releaseBase_));
    o.set("epoch", wordsJson(s.epoch_));
    o.set("arrivals", wordsJson(s.arrivals_));
    o.set("released", wordsJson(s.released_));
    o.set("hArrive", Json(static_cast<int>(s.hArrive_)));
    o.set("hRelease", Json(static_cast<int>(s.hRelease_)));
    return o;
}

Json
Access::niSection(const Machine &m)
{
    Json nodes = Json::array();
    for (const auto &n : m.nodes_) {
        const msg::NetIface &ni = *n->ni;
        Json o = Json::object();
        o.set("mode", Json(static_cast<int>(ni.mode_)));
        o.set("drainScheduled", Json(ni.drainScheduled_));
        o.set("lastHandlerDone", hx(ni.lastHandlerDone_));
        o.set("delivered", hx(ni.delivered_));
        Json q = Json::array();
        for (std::size_t i = 0; i < ni.queued_; ++i)
            q.push(amJson(ni.queued(i)));
        o.set("inq", std::move(q));
        nodes.push(std::move(o));
    }
    return nodes;
}

Json
Access::crossSection(const Machine &m)
{
    Json o = Json::object();
    o.set("present", Json(static_cast<bool>(m.cross_)));
    if (!m.cross_)
        return o;
    const net::CrossTraffic &ct = *m.cross_;
    o.set("bytesPerCycle", hxd(ct.cfg_.bytesPerCycle));
    o.set("messageBytes", Json(static_cast<int>(ct.cfg_.messageBytes)));
    Json streams = Json::array();
    for (const auto &s : ct.streams_) {
        Json so = Json::object();
        so.set("src", Json(static_cast<int>(s.src)));
        so.set("dst", Json(static_cast<int>(s.dst)));
        streams.push(std::move(so));
    }
    o.set("streams", std::move(streams));
    o.set("periodTicks", hx(ct.periodTicks_));
    o.set("running", Json(ct.running_));
    o.set("bytesInjected", hx(ct.bytesInjected_));
    return o;
}

Json
Access::countersSection(const Machine &m)
{
    Json o = Json::object();
    MachineCounters c = m.counters_;
    c.niQueueFullStalls = m.mesh_->niRejects();
    for (const CounterField &f : machineCounterFields())
        o.set(f.name, hx(c.*(f.member)));
    return o;
}

namespace {

/** Section names in document order; verify() walks the same list. */
constexpr const char *kSections[] = {
    "config", "kernel", "events", "parked", "mesh",  "memory",   "caches",
    "pfb",    "coh",    "procs",  "sync",   "ni",    "cross",    "counters",
};

} // namespace

CaptureResult
Access::capture(const Machine &m)
{
    std::vector<std::string> errors;

    Json doc = Json::object();
    doc.set("schema", Json(kCkptSchemaName));
    doc.set("version", Json(kCkptSchemaVersion));
    doc.set("config", configSection(m));
    doc.set("kernel", kernelSection(m));
    doc.set("events", eventsSection(m, errors));
    doc.set("parked", parkedSection(m));
    doc.set("mesh", meshSection(m));
    doc.set("memory", memorySection(m));
    doc.set("caches", cachesSection(m));
    doc.set("pfb", pfbSection(m));
    doc.set("coh", cohSection(m));
    doc.set("procs", procsSection(m));
    doc.set("sync", syncSection(m));
    doc.set("ni", niSection(m));
    doc.set("cross", crossSection(m));
    doc.set("counters", countersSection(m));

    Json digests = Json::object();
    for (const char *sec : kSections)
        digests.set(sec, hx(exp::fnv1a64(doc.at(sec).dump())));
    doc.set("digests", std::move(digests));

    CaptureResult r;
    if (!errors.empty()) {
        std::string joined = "ckpt: capture failed:";
        for (const std::string &e : errors)
            joined += "\n  " + e;
        r.error = std::move(joined);
        return r;
    }
    r.snap = Snapshot{std::move(doc)};
    return r;
}

void
Access::applyConfigDelta(Machine &m, const MachineConfig &variant)
{
    // Components reference Machine::cfg_, so assigning updates them all
    // in place; the mesh additionally caches cfg-derived timing, which
    // must be recomputed or the new knobs would never take effect.
    m.cfg_ = variant;
    m.mesh_->computeDerivedTiming();
}

std::vector<std::string>
Access::verify(const Machine &m, const Snapshot &snap)
{
    CaptureResult fresh = capture(m);
    if (!fresh.ok())
        return {fresh.error};

    std::vector<std::string> diverged;
    for (const char *sec : kSections) {
        const Json *want = snap.doc.find(sec);
        if (!want) {
            diverged.push_back(std::string("section '") + sec +
                               "' missing from snapshot");
            continue;
        }
        const Json &got = fresh.snap->doc.at(sec);
        const std::string wantDump = want->dump();
        const std::string gotDump = got.dump();
        if (wantDump == gotDump)
            continue;
        std::string line = std::string("section '") + sec + "' diverges";
        if (want->isArray() && got.isArray()) {
            const std::size_t lim =
                std::min(want->size(), got.size());
            std::size_t i = 0;
            while (i < lim && want->at(i).dump() == got.at(i).dump())
                ++i;
            line += " at index " + std::to_string(i) + " (snapshot has " +
                    std::to_string(want->size()) + " entries, machine " +
                    std::to_string(got.size()) + ")";
        }
        diverged.push_back(std::move(line));
    }
    return diverged;
}

} // namespace alewife::ckpt
