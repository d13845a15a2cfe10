#include "inputs.hh"

#include "apps/em3d.hh"
#include "apps/graph/catalog.hh"
#include "apps/iccg.hh"
#include "apps/moldyn.hh"
#include "apps/unstruc.hh"

namespace perfbench {

using namespace alewife;

namespace {

/** Generator seed of one input family: splitmix64 of (seed, family). */
std::uint64_t
familySeed(std::uint64_t seed, std::uint64_t family)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + family;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

enum Family : std::uint64_t
{
    kBipartite = 1,
    kMesh,
    kMatrix,
    kMolecules,
    kGraph,
};

std::string
key(const std::string &what, std::uint64_t seed, Size size)
{
    return "perfbench/" + what + "/seed=" + std::to_string(seed)
           + (size == Size::Smoke ? "/smoke" : "");
}

bool
smoke(Size s)
{
    return s == Size::Smoke;
}

Input
em3d(std::uint64_t seed, Size size, int perSide, int degree, int iters)
{
    apps::Em3d::Params p;
    p.graph.nodesPerSide = perSide;
    p.graph.degree = degree;
    p.graph.seed = familySeed(seed, kBipartite);
    p.iters = iters;
    return {"EM3D", apps::Em3d::factory(p), key("em3d", seed, size)};
}

Input
iccg(std::uint64_t seed, Size size, int rows)
{
    apps::Iccg::Params p;
    p.matrix.rows = rows;
    p.matrix.seed = familySeed(seed, kMatrix);
    return {"ICCG", apps::Iccg::factory(p), key("iccg", seed, size)};
}

} // namespace

std::vector<Input>
paperInputs(std::uint64_t seed, Size size)
{
    const bool s = smoke(size);
    apps::Unstruc::Params u;
    u.mesh.nodes = s ? 600 : 2000;
    u.mesh.seed = familySeed(seed, kMesh);
    u.iters = 2;
    apps::Moldyn::Params m;
    m.box.molecules = s ? 512 : 1024;
    m.box.cutoff = s ? 1.3 : 1.4;
    m.box.seed = familySeed(seed, kMolecules);
    m.iters = s ? 1 : 2;
    return {
        s ? em3d(seed, size, 512, 6, 2) : em3d(seed, size, 2000, 8, 3),
        {"UNSTRUC", apps::Unstruc::factory(u), key("unstruc", seed, size)},
        iccg(seed, size, s ? 800 : 2000),
        {"MOLDYN", apps::Moldyn::factory(m), key("moldyn", seed, size)},
    };
}

std::vector<Input>
graphInputs(std::uint64_t seed, Size size)
{
    std::vector<Input> out;
    for (const char *app : {"bfs", "pagerank-push", "sssp"}) {
        for (const auto fam : {workload::GraphFamily::RMat,
                               workload::GraphFamily::Uniform}) {
            apps::graph::GraphAppParams p;
            p.graph.family = fam;
            p.graph.vertices = smoke(size) ? 400 : 1024;
            p.graph.avgDegree = smoke(size) ? 5 : 8;
            p.graph.seed = familySeed(seed, kGraph);
            p.iters = smoke(size) ? 2 : 3;
            const std::string name = std::string(app) + "/"
                                     + workload::graphFamilyName(fam);
            out.push_back({name, apps::graph::makeApp(app, p),
                           key(name, seed, size)});
        }
    }
    return out;
}

std::vector<Input>
modeInputs(std::uint64_t seed, Size size)
{
    if (smoke(size))
        return {em3d(seed, size, 256, 6, 1), iccg(seed, size, 400)};
    return {em3d(seed, size, 1024, 8, 2), iccg(seed, size, 1200)};
}

} // namespace perfbench
