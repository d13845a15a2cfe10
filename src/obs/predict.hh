/**
 * @file
 * Analytical latency/bandwidth prediction over a captured DepGraph.
 *
 * Predictor replays one recorded dependency graph symbolically under a
 * *different* machine configuration (hopNs, netFixedNs, linkMBps,
 * procMhz, emulated cross-bisection traffic) and produces the runtime
 * that configuration would measure — one instrumented run plus O(n)
 * solves instead of one full simulation per sweep point (LLAMP-style,
 * arXiv 2404.14193; ROADMAP item 3).
 *
 * Cost model, per event delta:
 *  - network edges (mesh deliver events) are re-costed from first
 *    principles using the recorded hop counts and byte sizes:
 *        fixed'(netFixedNs) + hops * hop'(hopNs) + ser'(bytes, linkMBps)
 *    plus contention: the recorded queueing wait scaled by the ratio
 *    of per-byte serialization times, and — for emulated
 *    cross-traffic — the expected residual-service wait behind the
 *    deterministic periodic row streams,
 *        E[xHops] * u * serCross' / 2,  u = crossBpc / native bisection,
 *    charged per routed edge at the graph-mean horizontal-hop count
 *    (see the CostModel comment for why the mean, not each edge's
 *    own xHops);
 *  - every other delta (compute bursts, handler charges, protocol
 *    occupancy, NI retries, cross-tick periods) is processor-clocked
 *    and replays verbatim — ticks are 1/100 *cycle*, invariant under
 *    all swept knobs including procMhz.
 *
 * Replaying the graph under its own base configuration reproduces every
 * recorded event time and the recorded finish tick *exactly* (the
 * identity anchor, selfCheckExact()); model error at other points
 * comes from schedule invariance (the recorded event tree is assumed
 * stable under the re-costing) and the analytic queueing terms, and is
 * reported as MAPE by the fig08/fig09 benches.
 *
 * The same graph yields a Figure-4-style breakdown of the predicted
 * critical path. Two captured runs (base vs. a real RunSpec::delay
 * injection) are compared by compareInjectedRuns() into a
 * propagation/decay report.
 */

#ifndef ALEWIFE_OBS_PREDICT_HH
#define ALEWIFE_OBS_PREDICT_HH

#include <cstdint>
#include <vector>

#include "machine/config.hh"
#include "obs/critpath.hh"
#include "sim/types.hh"

namespace alewife::obs {

/** One sweep point to predict. */
struct PredictTarget
{
    MachineConfig machine;
    /** Emulated cross-bisection traffic (fig08); 0 = none. */
    double crossBytesPerCycle = 0.0;
    std::uint32_t crossMessageBytes = 64;
};

/** Figure-4-style decomposition of the predicted critical path. */
struct CritPathBreakdown
{
    double computeCycles = 0.0;      ///< ProcResume deltas + run-ahead
    double protocolCycles = 0.0;     ///< coherence occupancy/launch
    double messageCycles = 0.0;      ///< active-message launch/drain
    double retryCycles = 0.0;        ///< NI-reject redelivery
    double netFixedCycles = 0.0;     ///< latency: fixed per traversal
    double netHopCycles = 0.0;       ///< latency: per hop
    double netSerCycles = 0.0;       ///< bandwidth: serialization
    double netQueueCycles = 0.0;     ///< contention: queueing waits
    double crossTrafficCycles = 0.0; ///< added analytic cross-queueing
    double otherCycles = 0.0;
    double totalCycles = 0.0;
    std::uint64_t pathEvents = 0;
    std::uint64_t pathNetEdges = 0;
};

/** Result of comparing a delay-injected run against its base run. */
struct InjectionReport
{
    NodeId injectNode = -1;
    double finishShiftCycles = 0.0;

    struct NodeImpact
    {
        NodeId node = -1;
        /** Mesh (Manhattan) distance from the injected node. */
        int hopsFromInjection = 0;
        /** Completion-time shift, injected minus base. */
        double doneShiftCycles = 0.0;
        /** Barrier episodes compared (min of the two runs). */
        std::uint64_t barrierEpisodes = 0;
        /** Largest per-episode barrier-end shift. */
        double maxBarrierShiftCycles = 0.0;
        /** Episodes whose end moved by more than one cycle. */
        std::uint64_t barriersShifted = 0;
    };
    std::vector<NodeImpact> nodes;
    /** Nodes whose completion moved by more than one cycle. */
    std::uint32_t nodesShifted = 0;
};

/** Analytical replay of one captured DepGraph. */
class Predictor
{
  public:
    explicit Predictor(const DepGraph &g);

    /** The captured run's own configuration as a target (no cross). */
    PredictTarget baseTarget() const;

    /** Predicted runtime, in processor cycles of the target clock. */
    double predictRuntimeCycles(const PredictTarget &t) const;

    /**
     * Identity anchor: replaying under baseTarget() must reproduce the
     * recorded finish tick bit-exactly. False indicates the capture
     * violated a model precondition (hop jitter, perturbation).
     */
    bool selfCheckExact() const;

    /** Decompose the predicted critical path (longest chain). */
    CritPathBreakdown breakdown(const PredictTarget &t) const;

    /** Events replayed per solve (throughput accounting). */
    std::uint64_t solveEvents() const;

  private:
    struct CostModel;
    void forwardPass(const CostModel &m, std::vector<Tick> &pred,
                     std::vector<Tick> &pdelta) const;
    Tick finishOf(const std::vector<Tick> &pred,
                  Tick *extraOut = nullptr,
                  std::size_t *argmaxOut = nullptr) const;

    const DepGraph &g_;
    /** Net edges re-sorted by seq: the forward pass walks this with a
     *  cursor instead of one hash lookup per event (the lookup would
     *  otherwise dominate solve time). */
    std::vector<std::pair<std::uint32_t, DepGraph::NetEdge>>
        edgesBySeq_;
    /** Reused across solves; the Predictor is single-threaded. */
    mutable std::vector<Tick> scratchPred_, scratchDelta_;
};

/**
 * Propagation/decay report of a real delay injection: compares two
 * captured runs (identical specs except RunSpec::delay) by per-node
 * completion times and per-episode barrier ends.
 */
InjectionReport compareInjectedRuns(const DepGraph &base,
                                    const DepGraph &injected,
                                    NodeId injectNode);

} // namespace alewife::obs

#endif // ALEWIFE_OBS_PREDICT_HH
