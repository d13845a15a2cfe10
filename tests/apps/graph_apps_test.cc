/**
 * @file
 * Graph workload-family integration tests: every catalog app
 * self-verifies (bit-audited digest) under every mechanism, at 16 and
 * 64 nodes, with the invariant auditor attached; and results are
 * bit-identical with observability attached or detached.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "apps/graph/catalog.hh"
#include "apps/graph/graph_app.hh"
#include "core/runner.hh"

namespace alewife::apps::graph {
namespace {

using core::Mechanism;

GraphAppParams
smallParams(workload::GraphFamily f, int nprocs)
{
    GraphAppParams p;
    p.graph.family = f;
    p.graph.vertices = nprocs == 16 ? 400 : 768;
    p.graph.avgDegree = 5;
    p.graph.nprocs = nprocs;
    p.graph.seed = 11;
    p.iters = 2;
    return p;
}

MachineConfig
meshFor(int nprocs)
{
    MachineConfig cfg;
    cfg.meshX = nprocs == 16 ? 4 : 8;
    cfg.meshY = nprocs == 16 ? 4 : 8;
    return cfg;
}

void
runAllAppsAudited(int nprocs, Mechanism mech)
{
    const auto p = smallParams(workload::GraphFamily::Uniform, nprocs);
    for (const CatalogEntry &e : catalog()) {
        auto app = e.make(p)();
        core::RunSpec spec;
        spec.machine = meshFor(nprocs);
        spec.mechanism = mech;
        spec.audit = true; // InvariantAuditor on for every run
        const auto r = core::runApp(*app, spec, false);
        EXPECT_TRUE(r.verified)
            << e.name << " @" << nprocs << ": got " << r.checksum
            << " want " << r.reference;
        EXPECT_GT(r.runtimeCycles, 0.0);
    }
}

class GraphAllMechanisms : public ::testing::TestWithParam<Mechanism>
{
};

TEST_P(GraphAllMechanisms, EveryAppSelfVerifiesAudited16Nodes)
{
    runAllAppsAudited(16, GetParam());
}

TEST_P(GraphAllMechanisms, EveryAppSelfVerifiesAudited64Nodes)
{
    runAllAppsAudited(64, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, GraphAllMechanisms,
    ::testing::Values(Mechanism::SharedMemory,
                      Mechanism::SharedMemoryPrefetch,
                      Mechanism::MpInterrupt, Mechanism::MpPolling,
                      Mechanism::BulkTransfer),
    [](const auto &info) {
        switch (info.param) {
          case Mechanism::SharedMemory: return std::string("SM");
          case Mechanism::SharedMemoryPrefetch: return std::string("SMPF");
          case Mechanism::MpInterrupt: return std::string("MPI");
          case Mechanism::MpPolling: return std::string("MPP");
          case Mechanism::BulkTransfer: return std::string("BULK");
          default: return std::string("X");
        }
    });

/** Runs the machine to completion and keeps its mesh's reject count. */
struct MeshRejects : core::RunDriver
{
    std::uint64_t rejects = 0;

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        const Tick t = m.run(f);
        rejects = m.mesh().niRejects();
        return t;
    }
};

TEST(GraphApps, AttachedAndDetachedRunsAreBitIdentical)
{
    const auto p = smallParams(workload::GraphFamily::RMat, 16);
    // bfs exercises coherence and light messaging; pagerank-push on
    // R-MAT is an NI-full poll storm: the auditor and the interval
    // recorder see only real events, the virtual polls between them
    // are accounted lazily.
    const std::pair<const char *, Mechanism> runs[] = {
        {"bfs", Mechanism::SharedMemory},
        {"bfs", Mechanism::MpInterrupt},
        {"pagerank-push", Mechanism::MpInterrupt},
        {"pagerank-push", Mechanism::MpPolling},
    };
    for (const auto &[app, mech] : runs) {
        SCOPED_TRACE(app);
        const auto factory = makeApp(app, p);
        core::RunSpec plain;
        plain.machine = meshFor(16);
        plain.mechanism = mech;
        MeshRejects bareMesh;
        const auto bare = core::runApp(factory, plain, true, nullptr,
                                       &bareMesh);

        const std::string out =
            (std::filesystem::temp_directory_path()
             / "alewife-graph-metrics.json")
                .string();
        core::RunSpec attached = plain;
        attached.audit = true;
        attached.obs.metricsOut = out;
        attached.obs.intervalCycles = 5000;
        MeshRejects obsMesh;
        const auto obs = core::runApp(factory, attached, true, nullptr,
                                      &obsMesh);

        EXPECT_EQ(bare.checksum, obs.checksum);
        EXPECT_EQ(bare.runtimeCycles, obs.runtimeCycles);
        EXPECT_EQ(bare.simEvents, obs.simEvents);
        EXPECT_EQ(bare.volume.total(), obs.volume.total());
        EXPECT_EQ(bare.counters.niQueueFullStalls,
                  obs.counters.niQueueFullStalls);
        // The mesh's reject path is the one place both counts grow.
        EXPECT_EQ(bare.counters.niQueueFullStalls, bareMesh.rejects);
        EXPECT_EQ(obs.counters.niQueueFullStalls, obsMesh.rejects);
        if (std::string(app) == "pagerank-push")
            EXPECT_GT(bare.counters.niQueueFullStalls, bare.simEvents / 2);
        std::remove(out.c_str());
    }
}

TEST(GraphApps, AppsOfOneFactoryShareTheirInput)
{
    // The graph and the sequential reference are built once per
    // factory; every App it makes reads the same copy and verifies.
    const auto p = smallParams(workload::GraphFamily::RMat, 16);
    for (const char *app : {"bfs", "pagerank", "pagerank-push", "sssp"}) {
        SCOPED_TRACE(app);
        const auto factory = makeApp(app, p);
        const auto a = factory();
        const auto b = factory();
        const auto &ga = dynamic_cast<const GraphAppBase &>(*a);
        const auto &gb = dynamic_cast<const GraphAppBase &>(*b);
        EXPECT_EQ(&ga.graph(), &gb.graph());
        core::RunSpec spec;
        spec.machine = meshFor(16);
        spec.mechanism = Mechanism::MpInterrupt;
        EXPECT_TRUE(core::runApp(*a, spec, false).verified);
        EXPECT_TRUE(core::runApp(*b, spec, false).verified);
    }
}

TEST(GraphApps, CatalogLookupAndKeys)
{
    EXPECT_NE(findApp("bfs"), nullptr);
    EXPECT_NE(findApp("pagerank"), nullptr);
    EXPECT_NE(findApp("pagerank-push"), nullptr);
    EXPECT_NE(findApp("sssp"), nullptr);
    EXPECT_EQ(findApp("nonesuch"), nullptr);
    EXPECT_EQ(catalogNames().size(), catalog().size());

    // Keys separate apps and any result-affecting parameter.
    const auto p = smallParams(workload::GraphFamily::Uniform, 16);
    auto q = p;
    q.graph.seed = 12;
    EXPECT_NE(catalogKey("bfs", p), catalogKey("sssp", p));
    EXPECT_NE(catalogKey("bfs", p), catalogKey("bfs", q));
    EXPECT_EQ(catalogKey("bfs", p), catalogKey("bfs", p));
}

} // namespace
} // namespace alewife::apps::graph
