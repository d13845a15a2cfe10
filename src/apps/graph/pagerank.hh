/**
 * @file
 * PageRank over a partitioned graph, in two variants:
 *
 *  - SyncPull ("graph-pagerank"): bulk-synchronous power iteration.
 *    Producers ship one rank value per distinct (source, consumer
 *    partition) pair per round — the ghost-exchange shape of EM3D —
 *    and a global barrier ends every round.
 *  - AsyncPush ("graph-pagerank-push"): producers push one already-
 *    divided contribution per *cross edge* per round (no ghost dedup —
 *    the high-message-rate regime), rounds are pipelined with no
 *    global barrier: consumers proceed on precomputed expected-value
 *    counts, and window-2 ack credits with parity-buffered
 *    contribution slots provide flow control.
 *
 * Both variants accumulate each vertex's contributions in the fixed
 * in-edge CSR order the sequential reference uses, so the final double
 * ranks are bit-identical to the reference and the run is audited by
 * exact digest equality (the satellite golden additionally checks L1
 * distance, which is 0 here by construction).
 */

#ifndef ALEWIFE_APPS_GRAPH_PAGERANK_HH
#define ALEWIFE_APPS_GRAPH_PAGERANK_HH

#include <cstdint>
#include <vector>

#include "apps/graph/graph_app.hh"
#include "mem/partitioned.hh"

namespace alewife::apps::graph {

/** PageRank under a selectable communication mechanism. */
class Pagerank : public GraphAppBase
{
  public:
    enum class Variant
    {
        SyncPull,
        AsyncPush,
    };

    /** The graph and the reference ranks. */
    struct Input : GraphInput
    {
        explicit Input(const GraphAppParams &p);

        std::vector<double> refRanks;
    };

    Pagerank(GraphAppParams p, Variant variant);
    Pagerank(GraphAppParams p, Variant variant,
             std::shared_ptr<const Input> in);

    std::string
    name() const override
    {
        return variant_ == Variant::SyncPull ? "graph-pagerank"
                                             : "graph-pagerank-push";
    }

    void setup(Machine &m, core::Mechanism mech) override;
    sim::Thread program(proc::Ctx &ctx) override;
    double checksum() const override;

    static core::AppFactory factory(GraphAppParams p, Variant variant);

    /** Reference ranks (for the differential golden tests). */
    const std::vector<double> &refRanks() const { return refRanks_; }

    /** Distributed ranks, gathered after a run. */
    std::vector<double> resultRanks() const;

  private:
    struct Ref
    {
        bool remote;
        std::int32_t idx; ///< local index or ghost/slot index
    };

    struct SendItem
    {
        std::int32_t srcLocal;
        std::int32_t dstSlot;
    };

    void buildPullPlans();
    void buildPushPlans();

    sim::Thread programSmPull(proc::Ctx &ctx, bool prefetch);
    sim::Thread programSmPush(proc::Ctx &ctx, bool prefetch);
    sim::Thread programMpPull(proc::Ctx &ctx, bool bulk);
    sim::Thread programMpPush(proc::Ctx &ctx, bool bulk);

    double finalRank(std::int32_t v) const;

    Variant variant_;
    const std::vector<double> &refRanks_;

    /** Pull: ghost slots per distinct remote source. */
    std::vector<std::vector<double>> ghost_;
    /** Push: per-cross-in-edge contribution slots, parity-buffered. */
    std::vector<std::array<std::vector<double>, 2>> slots_;
    /** Per-proc flat in-edge source resolution. */
    std::vector<std::vector<Ref>> refs_;
    /** [producer][consumer] send items, in consumer slot order. */
    std::vector<std::vector<std::vector<SendItem>>> plan_;
    std::vector<std::int64_t> expected_;
    /** Pull: cumulative received values (barrier-protected). */
    std::vector<std::int64_t> received_;
    /** Push: received values split by round parity — a producer may
     *  run one round ahead, and its early values must not satisfy
     *  the current round's wait. */
    std::vector<std::array<std::int64_t, 2>> recvPar_;

    /** Push flow control. */
    std::vector<std::vector<int>> producersOf_;
    std::vector<std::vector<int>> consumersOf_;
    /** [producer][consumer] rounds acknowledged — per consumer, so a
     *  fast consumer's credits cannot cover for a slow one. */
    std::vector<std::vector<std::int64_t>> ackFrom_;

    /** MP: per-proc parity rank buffers. */
    std::vector<std::array<std::vector<double>, 2>> rank_;

    /** SM: parity rank arrays; push adds parity slot arrays. */
    mem::PartitionedArray rankArr_[2];
    mem::PartitionedArray slotArr_[2];

    msg::HandlerId hVal_ = -1;
    msg::HandlerId hValBulk_ = -1;
    msg::HandlerId hAck_ = -1;
};

} // namespace alewife::apps::graph

#endif // ALEWIFE_APPS_GRAPH_PAGERANK_HH
