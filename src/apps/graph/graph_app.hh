/**
 * @file
 * Common machinery of the graph-analytics workload family.
 *
 * Every graph app follows the same contract (the `apps::Stress` style,
 * hardened to bit-exactness):
 *
 *  - the constructor builds the partitioned graph and runs a sequential
 *    reference implementation; the reference result is reduced to a
 *    52-bit FNV digest stored as the App reference();
 *  - the distributed run — under any of the five mechanisms — produces
 *    per-vertex results whose digest must EQUAL the reference digest
 *    (tolerance() == 0), which only works because every accumulation
 *    the schedule can reorder is integer min-combining (BFS, SSSP) and
 *    every floating-point sum happens in a fixed CSR order (PageRank).
 *
 * How a graph run responds to latency and bandwidth is answered by the
 * critical-path predictor (obs/predict.hh), as for every other app.
 */

#ifndef ALEWIFE_APPS_GRAPH_GRAPH_APP_HH
#define ALEWIFE_APPS_GRAPH_GRAPH_APP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/app.hh"
#include "workload/graph.hh"

namespace alewife::apps::graph {

/** Parameters shared by every graph app. */
struct GraphAppParams
{
    workload::GraphParams graph;
    /** PageRank rounds / damping. */
    int iters = 5;
    double damping = 0.85;
    /** BFS/SSSP source; -1 picks the first vertex with out-edges. */
    std::int32_t root = -1;
    /** Delta-stepping bucket width (light edge: weight <= delta). */
    std::int32_t delta = 4;
};

/** Base class: graph + reference digest. */
/**
 * The read-only input every App of one factory shares: the partitioned
 * graph, the traversal root, and (in each app's subclass) the
 * sequential reference. Built once per factory; SweepEngine workers
 * build Apps concurrently and only read it.
 */
struct GraphInput
{
    explicit GraphInput(const GraphAppParams &p);
    virtual ~GraphInput() = default;

    workload::PartitionedGraph g;
    std::int32_t root = 0;
    /** Digest of the sequential reference, as a checksum. */
    double reference = 0.0;
};

class GraphAppBase : public core::App
{
  public:
    double reference() const override { return in_->reference; }
    /** Results are bit-audited: digests must match exactly. */
    double tolerance() const override { return 0.0; }

    const workload::PartitionedGraph &graph() const { return g_; }

  protected:
    GraphAppBase(GraphAppParams p, std::shared_ptr<const GraphInput> in);

    /** 64-bit FNV-1a step. */
    static std::uint64_t
    fnv(std::uint64_t h, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
        return h;
    }

    static constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

    /** Digest -> checksum double (52 bits, exactly representable). */
    static double
    digestChecksum(std::uint64_t h)
    {
        return static_cast<double>(h >> 12);
    }

    /** Panic unless the machine matches the workload partitioning. */
    void checkMachine(const Machine &m) const;

    GraphAppParams p_;
    std::shared_ptr<const GraphInput> in_;
    const workload::PartitionedGraph &g_;
    const std::int32_t root_;
    core::Mechanism mech_ = core::Mechanism::SharedMemory;
    Machine *machine_ = nullptr;

    /**
     * Per-vertex result words harvested by checksum() while the
     * machine is still alive. Shared-memory results live in simulated
     * memory, but the differential golden tests read result
     * accessors after runApp has destroyed the machine — so apps
     * serve those reads from this copy. Cleared by checkMachine() at
     * the next setup.
     */
    mutable std::vector<std::uint64_t> result_;
};

} // namespace alewife::apps::graph

#endif // ALEWIFE_APPS_GRAPH_GRAPH_APP_HH
