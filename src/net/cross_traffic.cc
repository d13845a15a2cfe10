#include "net/cross_traffic.hh"

#include "sim/logging.hh"

namespace alewife::net {

CrossTraffic::CrossTraffic(EventQueue &eq, Mesh &mesh,
                           CrossTrafficConfig cfg)
    : eq_(eq), mesh_(mesh), cfg_(cfg)
{
    const MachineConfig &mc = mesh.config();
    // One stream per mesh row per direction: left edge -> right edge and
    // right edge -> left edge, matching the 4-injectors-per-side setup of
    // the paper's 8x4 machine.
    for (int y = 0; y < mc.meshY; ++y) {
        const NodeId left = y * mc.meshX;
        const NodeId right = y * mc.meshX + (mc.meshX - 1);
        streams_.push_back({left, right});
        streams_.push_back({right, left});
    }
    if (cfg_.bytesPerCycle > 0.0) {
        // At or above the native bisection the cross traffic alone
        // saturates every horizontal link and deliveries queue without
        // bound.
        const double native = mc.bisectionBytesPerCycle();
        if (cfg_.bytesPerCycle >= native)
            ALEWIFE_FATAL("cross traffic of ", cfg_.bytesPerCycle,
                          " bytes/cycle saturates the native bisection "
                          "of ",
                          native, " bytes/cycle");
        if (cfg_.messageBytes == 0)
            ALEWIFE_FATAL("cross-traffic messages of 0 bytes cannot "
                          "carry ",
                          cfg_.bytesPerCycle, " bytes/cycle across the "
                          "native bisection of ",
                          native, " bytes/cycle; need at least 1 byte");
        const double per_stream =
            cfg_.bytesPerCycle / static_cast<double>(streams_.size());
        const double period_cycles =
            static_cast<double>(cfg_.messageBytes) / per_stream;
        periodTicks_ = cyclesToTicks(period_cycles);
        if (periodTicks_ == 0)
            ALEWIFE_FATAL("cross-traffic rate too high to emulate");
    }
}

void
CrossTraffic::start()
{
    if (running_ || cfg_.bytesPerCycle <= 0.0)
        return;
    running_ = true;
    injectAll();
}

void
CrossTraffic::stop()
{
    running_ = false;
}

void
CrossTraffic::injectAll()
{
    if (!running_)
        return;
    for (const Stream &s : streams_) {
        auto pkt = std::make_unique<Packet>();
        pkt->src = s.src;
        pkt->dst = s.dst;
        pkt->kind = PacketKind::CrossTraffic;
        pkt->sizeBytes = cfg_.messageBytes;
        pkt->countInVolume = false;
        bytesInjected_ += cfg_.messageBytes;
        mesh_.send(std::move(pkt));
    }
    eq_.schedule(eq_.now() + periodTicks_,
                 EventMeta{EventTag::CrossTrafficTick, 0, 0},
                 [this]() { injectAll(); });
}

double
CrossTraffic::effectiveBisection() const
{
    return mesh_.config().bisectionBytesPerCycle() - cfg_.bytesPerCycle;
}

} // namespace alewife::net
