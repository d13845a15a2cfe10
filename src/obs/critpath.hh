/**
 * @file
 * Critical-path dependency recorder.
 *
 * CritPathRecorder captures the *happens-before graph* of one run as a
 * compact event tree: every event scheduled on the kernel is a node
 * whose single parent is the event that scheduled it (sim::DepListener
 * seam), annotated with its schedule->fire delay. Because every
 * blocking wait in the machine model is released by an explicit event
 * (completeOp / recheckCond / resume), the tree is exactly the data-
 * dependency graph of the run. Network edges additionally carry the
 * cost decomposition the mesh reports through
 * check::Hooks::onPacketEdgeCost — fixed (netFixedNs), per-hop
 * (hopNs), serialization (linkMBps) and queueing components — which is
 * what lets obs::Predictor re-cost the whole run under a different
 * machine configuration without re-simulating (see predict.hh).
 *
 * Non-network event delays (compute bursts, handler charges, protocol
 * occupancy, NI retries) are processor-clocked: their tick values are
 * invariant under every knob the predictor sweeps (hopNs, netFixedNs,
 * linkMBps, procMhz — ticks count 1/100 *cycle*), so they replay
 * verbatim.
 *
 * The recorder implements both check::Hooks and DepListener; attaching
 * it never changes results — the graph of a run is bit-identical
 * run-to-run and identical whether or not an obs::Recorder is attached
 * alongside (pinned by tests/obs/critpath).
 */

#ifndef ALEWIFE_OBS_CRITPATH_HH
#define ALEWIFE_OBS_CRITPATH_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/hooks.hh"
#include "machine/config.hh"
#include "sim/event_queue.hh"
#include "sim/event_tag.hh"
#include "sim/types.hh"

namespace alewife {
class Machine;
}

namespace alewife::obs {

/**
 * The recorded dependency graph of one run. Plain data; produced by
 * CritPathRecorder, consumed by obs::Predictor. Storage is
 * struct-of-arrays indexed by kernel sequence number (seq ids are
 * assigned monotonically at schedule time, so index order is a valid
 * topological order of the tree).
 */
class DepGraph
{
  public:
    /** Parent index of events scheduled outside any event (roots). */
    static constexpr std::uint32_t kNoParent = 0xffffffffu;
    /** Sentinel in delta32 for the rare delay that exceeds 32 bits. */
    static constexpr std::uint32_t kBigDelta = 0xffffffffu;

    /** Cost decomposition of a network edge (mesh deliver event). */
    struct NetEdge
    {
        NodeId src = 0;
        NodeId dst = 0;
        std::uint32_t bytes = 0;
        std::uint16_t hops = 0;
        std::uint16_t xHops = 0;
        Tick fixedTicks = 0;
        Tick hopTicksTotal = 0;
        Tick serTicks = 0;
        Tick queueTicks = 0;
        bool ideal = false;
    };

    /**
     * One contribution to the machine's finish time: finishTick is the
     * max over nodes of the node-local clock, which advances inside
     * events (run-ahead) — so each contribution is an event plus the
     * local-clock excess over that event's tick. Emitted at program
     * completion and for post-completion handler charges.
     */
    struct FinishContrib
    {
        std::uint32_t seq = 0;
        NodeId node = 0;
        Tick extraTicks = 0;
        /** Absolute node-local completion tick (event tick + extra). */
        Tick atTick = 0;
    };

    /** One barrier episode, in node-local ticks (onBarrierEpisode). */
    struct Barrier
    {
        NodeId node = 0;
        Tick startTick = 0;
        Tick endTick = 0;
    };

    // -- per-event columns, indexed by seq --------------------------
    std::vector<std::uint32_t> parent;
    std::vector<std::uint32_t> delta32;
    std::vector<std::uint8_t> tag;      ///< EventTag
    std::vector<std::uint8_t> flags;    ///< bit 0: executed
    std::vector<std::int16_t> node;     ///< owning node, -1 if none

    /** Deltas that did not fit delta32 (delta32 == kBigDelta). */
    std::unordered_map<std::uint32_t, Tick> bigDelta;
    /** Absolute schedule-time `now` of root events. */
    std::unordered_map<std::uint32_t, Tick> rootNow;
    /** Network-edge annotations, keyed by deliver-event seq. */
    std::unordered_map<std::uint32_t, NetEdge> netEdges;

    std::vector<FinishContrib> finish;
    std::vector<Barrier> barriers;

    /**
     * Compute spans per node, in absolute node-local ticks (from
     * check::Hooks::onProcSpan, Compute category only, emitted in
     * nondecreasing order). The processor charges compute by running
     * its local clock ahead, so compute time is embedded in the
     * schedule deltas of the *next* request-launch events; these spans
     * let the critical-path breakdown separate it back out.
     */
    std::vector<std::vector<std::pair<Tick, Tick>>> computeSpans;

    /** Machine configuration the run was captured under. */
    MachineConfig baseConfig;
    /** Finish tick the captured run actually reported. */
    Tick recordedFinishTick = 0;
    /** Total events the captured run executed (cost accounting). */
    std::uint64_t eventsExecuted = 0;

    std::size_t size() const { return parent.size(); }

    /** Schedule->fire delay of event @p seq in ticks. */
    Tick
    deltaTicks(std::uint32_t seq) const
    {
        const std::uint32_t d = delta32[seq];
        if (d == kBigDelta) [[unlikely]] {
            const auto it = bigDelta.find(seq);
            return it == bigDelta.end() ? Tick{kBigDelta} : it->second;
        }
        return d;
    }

    bool executed(std::uint32_t seq) const { return flags[seq] & 1u; }

    /**
     * FNV-1a digest over the full graph (tree, annotations, finish
     * contributions, barriers). Two runs with identical schedules have
     * identical digests — the determinism anchor for tests.
     */
    std::uint64_t digest() const;

    /** Approximate heap footprint in bytes (capture-cost reporting). */
    std::size_t memoryBytes() const;
};

/**
 * Records a DepGraph while attached to a Machine. Attach before
 * Machine::run; the graph is complete once the run finishes.
 */
class CritPathRecorder final : public check::Hooks,
                               public DepListener
{
  public:
    CritPathRecorder();

    /** Hook into @p m (hooks fanout + kernel dependency listener). */
    void attach(Machine &m);

    /** The captured graph. Valid after the run completes. */
    const DepGraph &graph() const { return g_; }
    DepGraph &graph() { return g_; }

    // -- DepListener ------------------------------------------------
    void onSchedule(std::uint64_t seq, std::uint64_t parentSeq,
                    Tick when, Tick now,
                    const EventMeta &meta) override;
    void onExecute(std::uint64_t seq, Tick when) override;

    // -- check::Hooks -----------------------------------------------
    void onPacketEdgeCost(const check::PacketEdgeCost &cost) override;
    void onProgramDone(NodeId node, Tick extraTicks) override;
    void onHandlerRun(NodeId node, Tick start, Tick end) override;
    void onBarrierEpisode(NodeId node, Tick start, Tick end) override;
    void onProcSpan(NodeId node, TimeCat cat, Tick start,
                    Tick end) override;

  private:
    DepGraph g_;
    /** Edge cost reported just before the matching deliver schedule. */
    check::PacketEdgeCost pendingEdge_;
    bool havePendingEdge_ = false;
    /** Seq + tick of the event currently executing. */
    std::uint32_t curSeq_ = DepGraph::kNoParent;
    Tick curWhen_ = 0;
    /** Nodes whose program has completed (post-done handler charges
     *  also contribute to the finish time). */
    std::vector<bool> doneNodes_;
};

} // namespace alewife::obs

#endif // ALEWIFE_OBS_CRITPATH_HH
