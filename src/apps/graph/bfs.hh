/**
 * @file
 * Level-synchronous push BFS over a partitioned graph.
 *
 * Each vertex carries one 64-bit word packing (depth << 32 | parent);
 * unvisited is all-ones, so lexicographic (depth, parent) minimum is a
 * plain integer min — idempotent and commutative, which makes the
 * result independent of claim arrival order and lets the run be
 * bit-audited against the reference. The deterministic parent tree is
 * parent[v] = min in-neighbour one level up.
 *
 * Variants:
 *  - SM / SM+PF: the word array is shared; frontier vertices claim
 *    neighbours with rmw-min through the coherence protocol, one
 *    barrier per level, then each owner scans its partition for the
 *    next frontier (prefetch: write-ownership of the claim target and
 *    read-prefetch of the scan, two ahead);
 *  - MP-I / MP-P: claims travel as active messages (six claims per
 *    message), levels are synchronized point-to-point by precomputed
 *    expected-claim counts per (level, receiver) — no global barrier;
 *  - BULK: a level's claims to one destination are gathered into a
 *    single DMA body.
 */

#ifndef ALEWIFE_APPS_GRAPH_BFS_HH
#define ALEWIFE_APPS_GRAPH_BFS_HH

#include <cstdint>
#include <vector>

#include "apps/graph/graph_app.hh"
#include "mem/partitioned.hh"

namespace alewife::apps::graph {

/** BFS under a selectable communication mechanism. */
class Bfs : public GraphAppBase
{
  public:
    /** The graph, the reference tree and the expected claim counts. */
    struct Input : GraphInput
    {
        explicit Input(const GraphAppParams &p);

        workload::BfsRef ref;
        std::int32_t maxDepth = 0;
        /** Expected cross-claim values per (level, node). Per-level
         *  (not cumulative): a fast sender may run a level ahead, and
         *  its early claims must not satisfy the current level's
         *  wait. */
        std::vector<std::vector<std::int64_t>> exp;
    };

    explicit Bfs(GraphAppParams p);
    Bfs(GraphAppParams p, std::shared_ptr<const Input> in);

    std::string name() const override { return "graph-bfs"; }
    void setup(Machine &m, core::Mechanism mech) override;
    sim::Thread program(proc::Ctx &ctx) override;
    double checksum() const override;

    static core::AppFactory factory(GraphAppParams p);

    /** Reference tree (for the differential golden tests). */
    const workload::BfsRef &bfsRef() const { return ref_; }

    /** Distributed result, gathered after a run. */
    std::vector<std::int32_t> resultDepth() const;
    std::vector<std::int32_t> resultParent() const;

  private:
    static std::uint64_t
    pack(std::int32_t depth, std::int32_t parent)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(depth))
                << 32)
               | static_cast<std::uint32_t>(parent);
    }

    static constexpr std::uint64_t kUnset = ~std::uint64_t{0};

    std::uint64_t stateWord(std::int32_t v) const;

    sim::Thread programSm(proc::Ctx &ctx, bool prefetch);
    sim::Thread programMp(proc::Ctx &ctx, bool bulk);

    const workload::BfsRef &ref_;
    const std::int32_t maxDepth_;
    const std::vector<std::vector<std::int64_t>> &exp_;

    /** MP state: packed (depth, parent) per local vertex. */
    std::vector<std::vector<std::uint64_t>> state_;
    /** Claims received per (node, level). */
    std::vector<std::vector<std::int64_t>> recv_;
    msg::HandlerId hClaim_ = -1;
    msg::HandlerId hClaimBulk_ = -1;

    /** SM state. */
    mem::PartitionedArray stateArr_;
};

} // namespace alewife::apps::graph

#endif // ALEWIFE_APPS_GRAPH_BFS_HH
