/**
 * @file
 * Outside-in tracing of the simulator's layers.
 *
 * Everything here observes the simulator only through its public
 * seams, so the traced run needs no change inside src/:
 *  - timedFactory() wraps a core::AppFactory so every App it builds
 *    reports when its inputs were generated (factory call), when its
 *    machine was built (App::setup returned) and when its checksum was
 *    read — the per-point latency of the untraced run;
 *  - TracedDriver is a core::RunDriver that times every
 *    Machine::stepOne() and attributes the step to the layers whose
 *    check::Hooks callbacks fired during it (split evenly when several
 *    did, "other" when none did);
 *  - TraceSession::Span times any other public call (cache lookup,
 *    queue claim, snapshot save, predictor solve).
 * Spans stay in memory and are written once, at exit, as a Chrome
 * trace-event file. Step time is aggregated per layer, never stored
 * per event.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "check/hooks.hh"
#include "ckpt/snapshot.hh"
#include "core/runner.hh"

namespace alewife::obs {
class CritPathRecorder;
}

namespace perfbench {

using namespace alewife;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One simulated point as seen through the wrapping factory. */
struct PointSample
{
    std::int64_t startNs = 0;    ///< factory called
    std::int64_t genEndNs = 0;   ///< App constructed: inputs generated
    std::int64_t setupEndNs = 0; ///< App::setup returned: machine built
    std::int64_t endNs = 0;      ///< checksum read
    std::uint64_t events = 0;

    double
    ms() const
    {
        return static_cast<double>(endNs - startNs) / 1e6;
    }
};

/** Thread-safe log of every point a campaign simulated. */
class PointLog
{
  public:
    void add(const PointSample &s);
    /** Every sample so far; clears the log. */
    std::vector<PointSample> take();

  private:
    std::mutex mu_;
    std::vector<PointSample> samples_;
};

/** Wrap @p inner so every App it builds reports into @p log. */
core::AppFactory timedFactory(core::AppFactory inner, PointLog *log);

/** Simulator layers a step can be attributed to. */
enum Layer : int
{
    kCoh = 0, ///< coherence controller, caches, prefetch buffer
    kNet,     ///< mesh traffic of the application
    kCross,   ///< mesh traffic of the emulated cross traffic
    kProc,    ///< processor spans, barriers, program completion
    kMsg,     ///< message handlers and software traps
    kOther,   ///< steps during which no hook fired
    kNumLayers
};

/** Metric-name stem of each layer ("coh" for coh.self_ms). */
const char *layerName(int layer);

/** What the traced run accumulates over every point it simulates. */
struct LayerTotals
{
    double selfNs[kNumLayers] = {};
    double stepNs = 0.0;
    std::uint64_t steps = 0;

    // Simulated counts seen at the hook boundaries.
    std::uint64_t packets = 0;
    std::uint64_t hops = 0;
    double linkWaitCycles = 0.0;
    std::uint64_t protoMsgs = 0;
    std::uint64_t txns = 0;
    std::uint64_t handlerRuns = 0;
};

/**
 * Hooks observer that records which layers fired since the last reset,
 * plus the counts LayerTotals keeps. It is not parallel-capable, so
 * attaching it pins the serial kernel.
 */
class LayerHooks final : public check::Hooks
{
  public:
    explicit LayerHooks(LayerTotals &t) : t_(t) {}

    /** Bit per Layer that fired since the current step began. */
    unsigned fired = 0;

    void onPacketInjected(const net::Packet &pkt) override;
    void onPacketDelivered(const net::Packet &pkt) override;
    void onHop(const net::Packet &pkt, int link, Tick depart,
               Tick waited) override;
    void onProcSpan(NodeId, TimeCat, Tick, Tick) override { mark(kProc); }
    void onHandlerRun(NodeId, Tick, Tick) override;
    void onBarrierEpisode(NodeId, Tick, Tick) override { mark(kProc); }
    void onProgramDone(NodeId, Tick) override { mark(kProc); }
    void onCacheFill(NodeId, Addr, mem::LineState,
                     const std::vector<std::uint64_t> &) override
    {
        mark(kCoh);
    }
    void onCacheEvict(NodeId, Addr, bool) override { mark(kCoh); }
    void onCacheInvalidate(NodeId, Addr, bool) override { mark(kCoh); }
    void onCacheDowngrade(NodeId, Addr) override { mark(kCoh); }
    void onCacheUpgrade(NodeId, Addr) override { mark(kCoh); }
    void onPfbInstall(NodeId, Addr, mem::LineState,
                      const std::vector<std::uint64_t> &) override
    {
        mark(kCoh);
    }
    void onPfbRemove(NodeId, Addr) override { mark(kCoh); }
    void onPfbDowngrade(NodeId, Addr) override { mark(kCoh); }
    void onProtoSend(NodeId, NodeId, const coh::ProtoMsg &) override;
    void onProtoProcess(NodeId, const coh::ProtoMsg &) override
    {
        mark(kCoh);
    }
    void onLocalGrant(NodeId, Addr, bool) override { mark(kCoh); }
    void onFill(NodeId, Addr, bool) override { mark(kCoh); }
    void onMshrOpen(NodeId, Addr, bool) override { mark(kCoh); }
    void onMshrClose(NodeId, Addr) override { mark(kCoh); }
    void onTxnOpen(NodeId, Addr, const coh::DirTxn &) override;
    void onTxnClose(NodeId, Addr) override { mark(kCoh); }
    void onRecallStashed(NodeId, Addr) override { mark(kCoh); }
    void onRecallHonored(NodeId, Addr) override { mark(kCoh); }

  private:
    void mark(int layer) { fired |= 1u << layer; }
    /** Mark net or cross by packet kind; true for application packets. */
    bool markPacket(const net::Packet &pkt);

    LayerTotals &t_;
};

/**
 * A RunDriver that runs the machine one event at a time, timing each
 * step and attributing it by which layers' hooks fired. Subclasses add
 * the checkpoint calls of a warm-start sweep around the same loop.
 */
class TracedDriver : public core::RunDriver
{
  public:
    explicit TracedDriver(LayerTotals &t) : hooks_(t), t_(t) {}

    Tick drive(Machine &m, const Machine::ProgramFactory &f) override;

    std::int64_t startNs() const { return startNs_; }
    std::int64_t endNs() const { return endNs_; }

  protected:
    /** Attach the hooks and note the drive start. */
    void begin(Machine &m);
    /** Step until @p events have executed or every program is done. */
    void stepUntil(Machine &m, std::uint64_t events);
    /** Machine::finishRun() and note the drive end. */
    Tick end(Machine &m);

  private:
    LayerHooks hooks_;
    LayerTotals &t_;
    std::int64_t startNs_ = 0;
    std::int64_t endNs_ = 0;
};

/**
 * Spans of the traced run, kept in memory. A point's index is its
 * request id: the point span and its children (gen, build, run,
 * verify) share it, and so do the layer calls made for that point.
 */
class TraceSession
{
  public:
    /** RAII span: times its scope under request id @p req. */
    class Span
    {
      public:
        Span(TraceSession &s, const char *name, int req)
            : s_(s), name_(name), req_(req), startNs_(nowNs())
        {
        }
        ~Span() { s_.add(name_, req_, startNs_, nowNs()); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        TraceSession &s_;
        const char *name_;
        int req_;
        std::int64_t startNs_;
    };

    /**
     * Run one point serially through core::runApp with @p driver (a
     * fresh TracedDriver when null) and record its spans.
     */
    core::RunResult point(const core::AppFactory &factory,
                          const core::RunSpec &spec,
                          TracedDriver *driver = nullptr,
                          obs::CritPathRecorder *critpath = nullptr);

    /** Request id the next point() will use. */
    int nextReq() const { return nextReq_; }

    void add(const char *name, int req, std::int64_t startNs,
             std::int64_t endNs);

    /** Sum of the durations of every span named @p name, in ms. */
    double totalMs(const std::string &name) const;
    /** Number of spans named @p name. */
    std::size_t count(const std::string &name) const;

    LayerTotals &layers() { return layers_; }
    const LayerTotals &layers() const { return layers_; }

    /** Counters summed over every point simulated in the trace. */
    const MachineCounters &counters() const { return counters_; }
    std::uint64_t events() const { return events_; }

    /** Add @p v to a named tally (cache hits, snapshot bytes, ...). */
    void note(const std::string &name, double v) { tallies_[name] += v; }
    /** A tally's total; 0 when never noted. */
    double
    tally(const std::string &name) const
    {
        const auto it = tallies_.find(name);
        return it == tallies_.end() ? 0.0 : it->second;
    }

    /** Write every span as a Chrome trace-event JSON file. */
    void write(const std::string &path) const;

  private:
    struct Rec
    {
        const char *name;
        int req;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::vector<Rec> spans_;
    LayerTotals layers_;
    MachineCounters counters_;
    std::uint64_t events_ = 0;
    std::map<std::string, double> tallies_;
    int nextReq_ = 0;
};

/** TracedDriver that also captures a snapshot at a fork point. */
class TracedForkDriver : public TracedDriver
{
  public:
    TracedForkDriver(TraceSession &s, std::uint64_t forkEvents)
        : TracedDriver(s.layers()), s_(s), forkEvents_(forkEvents)
    {
    }

    Tick drive(Machine &m, const Machine::ProgramFactory &f) override;

    const std::optional<ckpt::Snapshot> &
    snapshot() const
    {
        return snap_;
    }

  private:
    TraceSession &s_;
    std::uint64_t forkEvents_;
    std::optional<ckpt::Snapshot> snap_;
};

/** TracedDriver that warm-starts a variant from a snapshot. */
class TracedWarmDriver : public TracedDriver
{
  public:
    TracedWarmDriver(TraceSession &s, const ckpt::Snapshot &snap,
                     MachineConfig variant)
        : TracedDriver(s.layers()), s_(s), snap_(snap),
          variant_(std::move(variant))
    {
    }

    Tick drive(Machine &m, const Machine::ProgramFactory &f) override;

  private:
    TraceSession &s_;
    const ckpt::Snapshot &snap_;
    MachineConfig variant_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
