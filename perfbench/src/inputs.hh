/**
 * @file
 * Seeded inputs of the campaign benchmark.
 *
 * One --seed selects every input of a run: it is mixed into the
 * generator seed of each input family the applications use (bipartite
 * graph, unstructured mesh, sparse triangular matrix, molecule box,
 * synthetic graph), so the same seed always yields the same inputs and
 * the simulator only ever sees generated inputs.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/app.hh"

namespace perfbench {

/** Full is the measured scale; Smoke is a seconds-long check. */
enum class Size
{
    Full,
    Smoke,
};

/** One named input: an app factory and its result-cache identity. */
struct Input
{
    std::string name;
    alewife::core::AppFactory factory;
    /** Workload identity for ResultCache keys; includes the seed. */
    std::string appKey;
};

/** fig08_cold: EM3D, UNSTRUC, ICCG, MOLDYN at the figure benches'
 *  default scale. */
std::vector<Input> paperInputs(std::uint64_t seed, Size size);

/** graph_mp: bfs, pagerank-push and sssp on R-MAT and uniform graphs. */
std::vector<Input> graphInputs(std::uint64_t seed, Size size);

/** sweep_modes: EM3D and ICCG at sweep_cli's scale 1. */
std::vector<Input> modeInputs(std::uint64_t seed, Size size);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
