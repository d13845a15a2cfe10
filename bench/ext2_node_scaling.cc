/**
 * @file
 * EXT2 — extension experiment: strong scaling across machine sizes.
 *
 * The paper fixes the machine at 32 nodes; this extension holds the
 * EM3D problem constant and grows the mesh from 8 to 64 nodes. Two
 * effects compound against shared memory as the machine grows: the
 * per-node work shrinks (barriers amortize worse) and the average hop
 * count rises (round-trips stretch), while one-way message passing
 * only pays the second, mildly.
 */

#include <iomanip>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace alewife;
    const auto scale = bench::parseScale(argc, argv);

    struct Shape
    {
        int x, y;
    };
    const std::vector<Shape> shapes = {{4, 2}, {4, 4}, {8, 4}, {8, 8}};

    std::cout << "EXT2: strong scaling, fixed EM3D problem\n\n";
    std::cout << std::left << std::setw(10) << "nodes" << std::right
              << std::setw(12) << "SM" << std::setw(12) << "MP-I"
              << std::setw(12) << "SM spdup" << std::setw(12)
              << "MP spdup" << '\n';

    double sm_base = 0.0, mp_base = 0.0;
    for (const Shape &sh : shapes) {
        apps::Em3d::Params p = bench::em3dParams(scale);
        p.graph.nprocs = sh.x * sh.y;

        MachineConfig cfg;
        cfg.meshX = sh.x;
        cfg.meshY = sh.y;

        core::RunSpec sm;
        sm.machine = cfg;
        sm.mechanism = core::Mechanism::SharedMemory;
        core::RunSpec mp = sm;
        mp.mechanism = core::Mechanism::MpInterrupt;

        const auto factory = apps::Em3d::factory(p);
        const double rs = core::runApp(factory, sm).runtimeCycles;
        const double rm = core::runApp(factory, mp).runtimeCycles;
        if (sm_base == 0.0) {
            sm_base = rs;
            mp_base = rm;
        }
        std::cout << std::left << std::setw(10) << sh.x * sh.y
                  << std::right << std::fixed << std::setprecision(0)
                  << std::setw(12) << rs << std::setw(12) << rm
                  << std::setprecision(2) << std::setw(12)
                  << sm_base / rs << std::setw(12) << mp_base / rm
                  << '\n';
    }
    std::cout << "\n(speedups are relative to the 8-node run; ideal "
                 "at 64 nodes would be 8.0.)\n";
    return 0;
}
