#include "machine/machine.hh"

#include <sstream>

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife {

Machine::Node::Node(NodeId id, Machine &m)
    : proc(id, m.eq_, m.cfg_),
      cache(m.cfg_.cacheBytes, m.cfg_.lineBytes),
      pfb(m.cfg_.prefetchBufferEntries)
{
    coh = std::make_unique<coh::CoherenceController>(
        id, m.eq_, m.cfg_, *m.mem_, cache, pfb, proc, *m.mesh_,
        m.counters_);
    ni = std::make_unique<msg::NetIface>(id, m.eq_, m.cfg_, proc, *m.mesh_,
                                         m.handlers_, m.counters_);
    ctx = std::make_unique<proc::Ctx>(id, m.cfg_.nodes(), m.cfg_, proc,
                                      *coh, *ni, *m.sync_, m.counters_);
}

Machine::Machine(MachineConfig cfg, proc::SyncStyle style,
                 msg::RecvMode mode)
    : cfg_(std::move(cfg))
{
    cfg_.validate();
    mesh_ = std::make_unique<net::Mesh>(eq_, cfg_);
    mem_ = std::make_unique<mem::AddressSpace>(cfg_.nodes(),
                                               cfg_.lineBytes);
    sync_ = std::make_unique<proc::SyncSystem>(cfg_.nodes(), style);

    if (style == proc::SyncStyle::SharedMemory)
        sync_->setupSharedMemory(*mem_);
    else
        sync_->setupMessagePassing(handlers_);

    nodes_.reserve(cfg_.nodes());
    for (int i = 0; i < cfg_.nodes(); ++i) {
        nodes_.push_back(std::make_unique<Node>(i, *this));
        nodes_.back()->ni->setMode(mode);
    }

    for (int i = 0; i < cfg_.nodes(); ++i) {
        mesh_->setSink(i, [this, i](net::Packet &p) -> bool {
            switch (p.kind) {
              case net::PacketKind::Coherence: {
                auto *m = static_cast<coh::ProtoMsg *>(p.payload.get());
                nodes_[i]->coh->receive(std::move(*m));
                return true;
              }
              case net::PacketKind::ActiveMessage:
                return nodes_[i]->ni->receive(p);
              case net::PacketKind::CrossTraffic:
                return true; // drains off the mesh edge
            }
            ALEWIFE_PANIC("bad packet kind");
        });
    }
}

Machine::~Machine() = default;

void
Machine::attachHooks(check::Hooks *hooks)
{
    hookObs_.push_back(hooks);
    check::Hooks *effective = hookObs_.front();
    if (hookObs_.size() > 1) {
        if (!hookFanout_)
            hookFanout_ = std::make_unique<check::HookFanout>();
        hookFanout_->clear();
        for (check::Hooks *h : hookObs_)
            hookFanout_->add(h);
        effective = hookFanout_.get();
    }
    wireHooks(effective);
}

void
Machine::wireHooks(check::Hooks *h)
{
    eq_.setAuditHooks(h);
    mesh_->setAuditHooks(h);
    for (int i = 0; i < nodes(); ++i) {
        cacheAt(i).setAuditHooks(h, i);
        pfbAt(i).setAuditHooks(h, i);
        cohAt(i).setAuditHooks(h);
        procAt(i).setAuditHooks(h);
    }
}

void
Machine::addCrossTraffic(net::CrossTrafficConfig cfg)
{
    cross_ = std::make_unique<net::CrossTraffic>(eq_, *mesh_, cfg);
}

void
Machine::setPerturbation(const check::PerturbConfig &p)
{
    if (p.tieBreak)
        eq_.setTieBreak(p.seed);
    if (p.hopJitterFrac > 0.0)
        mesh_->setHopJitter(p.hopJitterFrac,
                            p.seed ^ 0x9e3779b97f4a7c15ULL);
}

bool
Machine::allDone() const
{
    for (const auto &n : nodes_) {
        if (!n->proc.done())
            return false;
    }
    return true;
}

void
Machine::start(const ProgramFactory &f)
{
    for (auto &n : nodes_)
        n->proc.start(f(*n->ctx));
    if (cross_)
        cross_->start();
}

void
Machine::panicDeadlock() const
{
    std::ostringstream os;
    for (const auto &n : nodes_) {
        if (!n->proc.done()) {
            os << " node " << n->proc.id() << " state "
               << static_cast<int>(n->proc.state());
        }
    }
    os << "\n";
    for (const auto &n : nodes_)
        n->coh->debugDump(os);
    ALEWIFE_PANIC("simulation deadlock at tick ", eq_.now(), ":",
                  os.str());
}

bool
Machine::stepOne(Tick limit)
{
    if (allDone())
        return false;
    if (!eq_.step())
        panicDeadlock();
    if (eq_.now() > limit)
        ALEWIFE_PANIC("simulation exceeded tick limit ", limit);
    return true;
}

bool
Machine::stepUntilEvents(std::uint64_t events, Tick limit)
{
    while (eq_.eventsExecuted() < events) {
        if (!stepOne(limit))
            return false;
    }
    return true;
}

Tick
Machine::finishRun()
{
    if (cross_)
        cross_->stop();

    // Quiesce: let in-flight protocol traffic (victim writebacks, final
    // acks) land so post-run verification sees settled state. Bounded:
    // in polling mode packets may still be parked behind an NI no
    // program drains, and their virtual polls up to the bound count.
    eq_.runUntil(eq_.now() + cyclesToTicks(std::uint64_t(200'000)));

    finishTick_ = 0;
    for (const auto &n : nodes_)
        finishTick_ = std::max(finishTick_, n->proc.localNow());
    return finishTick_;
}

Tick
Machine::run(const ProgramFactory &f, Tick limit)
{
    start(f);
    while (stepOne(limit)) {
    }
    return finishRun();
}

std::uint64_t
Machine::debugWord(Addr a)
{
    const Addr line = a & ~static_cast<Addr>(cfg_.lineBytes - 1);
    const NodeId home = mem_->home(a);
    const NodeId owner = nodes_[home]->coh->dirOwner(line);
    if (owner >= 0) {
        std::uint64_t v = 0;
        if (nodes_[owner]->coh->debugLocalWord(a, v))
            return v;
        // Owner's copy is in flight back to memory; fall through.
    }
    return mem_->loadWord(a);
}

double
Machine::debugDouble(Addr a)
{
    return std::bit_cast<double>(debugWord(a));
}

TimeBreakdown
Machine::breakdownSum() const
{
    TimeBreakdown sum;
    for (const auto &n : nodes_)
        sum += n->proc.breakdown();
    return sum;
}

} // namespace alewife
