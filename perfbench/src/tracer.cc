#include "tracer.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <utility>

#include "ckpt/ckpt.hh"
#include "ckpt/restore.hh"
#include "net/packet.hh"
#include "obs/critpath.hh"
#include "sim/logging.hh"

namespace perfbench {

namespace {

/** Forwards every call to the wrapped App and reports into a PointLog. */
class TimedApp final : public core::App
{
  public:
    TimedApp(std::unique_ptr<core::App> inner, PointLog *log,
             PointSample s)
        : inner_(std::move(inner)), log_(log), s_(s)
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    setup(Machine &m, core::Mechanism mech) override
    {
        inner_->setup(m, mech);
        m_ = &m;
        s_.setupEndNs = nowNs();
    }

    sim::Thread program(proc::Ctx &ctx) override
    {
        return inner_->program(ctx);
    }

    double
    checksum() const override
    {
        const double v = inner_->checksum();
        s_.endNs = nowNs();
        if (m_)
            s_.events = m_->eq().eventsExecuted();
        log_->add(s_);
        return v;
    }

    double reference() const override { return inner_->reference(); }
    double tolerance() const override { return inner_->tolerance(); }

    void
    exportMetrics(obs::MetricsRegistry &r) const override
    {
        inner_->exportMetrics(r);
    }

  private:
    std::unique_ptr<core::App> inner_;
    PointLog *log_;
    Machine *m_ = nullptr;
    mutable PointSample s_;
};

} // namespace

void
PointLog::add(const PointSample &s)
{
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(s);
}

std::vector<PointSample>
PointLog::take()
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(samples_, {});
}

core::AppFactory
timedFactory(core::AppFactory inner, PointLog *log)
{
    return [inner = std::move(inner), log]() -> std::unique_ptr<core::App> {
        PointSample s;
        s.startNs = nowNs();
        auto app = inner();
        s.genEndNs = nowNs();
        return std::make_unique<TimedApp>(std::move(app), log, s);
    };
}

const char *
layerName(int layer)
{
    static const char *const names[kNumLayers] = {
        "coh", "net", "net.cross", "proc", "msg", "sim.other"};
    return names[layer];
}

// --- LayerHooks ------------------------------------------------------

bool
LayerHooks::markPacket(const net::Packet &pkt)
{
    const bool app = pkt.kind != net::PacketKind::CrossTraffic;
    mark(app ? kNet : kCross);
    return app;
}

void
LayerHooks::onPacketInjected(const net::Packet &pkt)
{
    if (markPacket(pkt))
        ++t_.packets;
}

void
LayerHooks::onPacketDelivered(const net::Packet &pkt)
{
    markPacket(pkt);
}

void
LayerHooks::onHop(const net::Packet &pkt, int, Tick, Tick waited)
{
    if (markPacket(pkt)) {
        ++t_.hops;
        t_.linkWaitCycles += ticksToCycles(waited);
    }
}

void
LayerHooks::onHandlerRun(NodeId, Tick, Tick)
{
    mark(kMsg);
    ++t_.handlerRuns;
}

void
LayerHooks::onProtoSend(NodeId, NodeId, const coh::ProtoMsg &)
{
    mark(kCoh);
    ++t_.protoMsgs;
}

void
LayerHooks::onTxnOpen(NodeId, Addr, const coh::DirTxn &)
{
    mark(kCoh);
    ++t_.txns;
}

// --- TracedDriver ----------------------------------------------------

void
TracedDriver::begin(Machine &m)
{
    startNs_ = nowNs();
    m.attachHooks(&hooks_);
}

void
TracedDriver::stepUntil(Machine &m, std::uint64_t events)
{
    while (m.eq().eventsExecuted() < events) {
        hooks_.fired = 0;
        const std::int64_t t0 = nowNs();
        const bool more = m.stepOne();
        const double dt = static_cast<double>(nowNs() - t0);
        ++t_.steps;
        t_.stepNs += dt;
        const int n = std::popcount(hooks_.fired);
        if (n == 0) {
            t_.selfNs[kOther] += dt;
        } else {
            for (int l = 0; l < kOther; ++l)
                if (hooks_.fired & (1u << l))
                    t_.selfNs[l] += dt / n;
        }
        if (!more)
            break;
    }
}

Tick
TracedDriver::end(Machine &m)
{
    const Tick finish = m.finishRun();
    endNs_ = nowNs();
    return finish;
}

Tick
TracedDriver::drive(Machine &m, const Machine::ProgramFactory &f)
{
    begin(m);
    m.start(f);
    stepUntil(m, ~std::uint64_t{0});
    return end(m);
}

Tick
TracedForkDriver::drive(Machine &m, const Machine::ProgramFactory &f)
{
    begin(m);
    m.start(f);
    stepUntil(m, forkEvents_);
    snap_.reset();
    if (m.eq().eventsExecuted() == forkEvents_) {
        TraceSession::Span span(s_, "ckpt.save", s_.nextReq() - 1);
        snap_ = ckpt::save(m);
    }
    stepUntil(m, ~std::uint64_t{0});
    return end(m);
}

Tick
TracedWarmDriver::drive(Machine &m, const Machine::ProgramFactory &f)
{
    begin(m);
    {
        TraceSession::Span span(s_, "ckpt.resume", s_.nextReq() - 1);
        const ckpt::ResumeResult r = ckpt::resumeWarm(m, f, snap_, variant_);
        if (!r.ok)
            ALEWIFE_FATAL("perfbench: warm start failed: ", r.error);
    }
    stepUntil(m, ~std::uint64_t{0});
    return end(m);
}

// --- TraceSession ----------------------------------------------------

core::RunResult
TraceSession::point(const core::AppFactory &factory,
                    const core::RunSpec &spec, TracedDriver *driver,
                    obs::CritPathRecorder *critpath)
{
    const int req = nextReq_++;
    TracedDriver own(layers_);
    TracedDriver &d = driver ? *driver : own;

    PointLog local;
    const std::int64_t t0 = nowNs();
    auto app = timedFactory(factory, &local)();
    core::RunResult r = core::runApp(*app, spec, /*verify_fatal=*/false,
                                     /*auditor=*/nullptr, &d, critpath);
    const std::int64_t t1 = nowNs();

    const std::vector<PointSample> s = local.take();
    if (s.size() == 1) {
        add("workload.gen", req, s[0].startNs, s[0].genEndNs);
        add("machine.build", req, s[0].genEndNs, s[0].setupEndNs);
    }
    add("sim.run", req, d.startNs(), d.endNs());
    add("core.verify", req, d.endNs(), t1);
    add("point", req, t0, t1);

    counters_ += r.counters;
    events_ += r.simEvents;
    return r;
}

void
TraceSession::add(const char *name, int req, std::int64_t startNs,
                  std::int64_t endNs)
{
    spans_.push_back({name, req, startNs, endNs});
}

double
TraceSession::totalMs(const std::string &name) const
{
    double ns = 0.0;
    for (const Rec &r : spans_)
        if (name == r.name)
            ns += static_cast<double>(r.endNs - r.startNs);
    return ns / 1e6;
}

std::size_t
TraceSession::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Rec &r : spans_)
        n += name == r.name;
    return n;
}

void
TraceSession::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        ALEWIFE_WARN("perfbench: cannot write trace ", path);
        return;
    }
    std::int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    for (const Rec &r : spans_)
        base = std::min(base, r.startNs);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Rec &r = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"req\":%d}}%s\n",
                      r.name, static_cast<double>(r.startNs - base) / 1e3,
                      static_cast<double>(r.endNs - r.startNs) / 1e3,
                      r.req, i + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
}

} // namespace perfbench
