/**
 * @file
 * Delta-stepping single-source shortest paths over a partitioned
 * graph, differentially verified against Dijkstra.
 *
 * Weights are small positive integers; edges with weight <= delta are
 * "light". The constructor simulates delta-stepping sequentially and
 * records the exact phase schedule — for every bucket, its sequence of
 * light relaxation phases and one trailing heavy phase — plus the
 * number of cross-partition relaxations each node will receive in each
 * phase. The distributed run then walks that schedule:
 *
 *  - SM / SM+PF: tentative distances live in a shared array updated
 *    with rmw-min; each node keeps a host-side shadow that it re-reads
 *    from its own partition only at phase barriers, so active sets are
 *    always computed from boundary state and match the plan exactly;
 *  - MP-I / MP-P: relaxations travel as active messages tagged with
 *    their phase index. Receivers count arrivals per phase (a
 *    run-ahead sender's early relaxations must not satisfy the
 *    current phase's wait) and defer application — including local
 *    relaxations — until the phase's sync point, keeping distributed
 *    state in lockstep with the plan;
 *  - BULK: a phase's relaxations to one destination ride in one DMA
 *    body.
 *
 * The final tentative distances are digested and compared with a
 * digest of Dijkstra's distances: two different algorithms must agree
 * bit-for-bit, which is the differential check.
 */

#ifndef ALEWIFE_APPS_GRAPH_SSSP_HH
#define ALEWIFE_APPS_GRAPH_SSSP_HH

#include <cstdint>
#include <vector>

#include "apps/graph/graph_app.hh"
#include "mem/partitioned.hh"

namespace alewife::apps::graph {

/** Delta-stepping SSSP under a selectable communication mechanism. */
class Sssp : public GraphAppBase
{
  public:
    struct Input;

    explicit Sssp(GraphAppParams p);
    Sssp(GraphAppParams p, std::shared_ptr<const Input> in);

    std::string name() const override { return "graph-sssp"; }
    void setup(Machine &m, core::Mechanism mech) override;
    sim::Thread program(proc::Ctx &ctx) override;
    double checksum() const override;

    static core::AppFactory factory(GraphAppParams p);

    /** Dijkstra distances (for the differential golden tests). */
    const std::vector<std::int64_t> &refDist() const { return dist_; }

    /** Distributed distances after a run (-1 = unreachable). */
    std::vector<std::int64_t> resultDist() const;

  private:
    static constexpr std::int64_t kInf =
        std::int64_t{0x7fffffffffffffff};

    struct Phase
    {
        std::int64_t bucket;
        bool heavy;
    };

    struct Inbox
    {
        std::int32_t phase;
        std::int32_t target; ///< local index
        std::int64_t cand;
    };

    std::uint64_t tentWord(std::int32_t v) const;

    sim::Thread programSm(proc::Ctx &ctx, bool prefetch);
    sim::Thread programMp(proc::Ctx &ctx, bool bulk);

  public:
    /** The graph, Dijkstra's distances and the planned phases. */
    struct Input : GraphInput
    {
        explicit Input(const GraphAppParams &p);

        std::vector<std::int64_t> dist;
        /** The planned phase schedule (identical on every node). */
        std::vector<Phase> phases;
        /** Expected cross relaxations per (phase, node). */
        std::vector<std::vector<std::int64_t>> exp;

      private:
        /** Simulate delta-stepping sequentially to plan the phases. */
        void buildPlan(const GraphAppParams &p);
    };

  private:
    const std::vector<std::int64_t> &dist_;
    const std::vector<Phase> &phases_;
    const std::vector<std::vector<std::int64_t>> &exp_;

    /** Per-node tentative state (the SM shadow / the MP state). */
    std::vector<std::vector<std::int64_t>> tent_;
    std::vector<std::vector<std::int64_t>> lastProc_;
    std::vector<std::vector<char>> flag_;

    /** MP: phase-tagged inboxes and per-phase arrival counts. */
    std::vector<std::vector<Inbox>> inbox_;
    std::vector<std::vector<std::int64_t>> recv_;
    msg::HandlerId hRelax_ = -1;
    msg::HandlerId hRelaxBulk_ = -1;

    /** SM: shared tentative-distance words. */
    mem::PartitionedArray tentArr_;
};

} // namespace alewife::apps::graph

#endif // ALEWIFE_APPS_GRAPH_SSSP_HH
