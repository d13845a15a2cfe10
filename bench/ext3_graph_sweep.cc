/**
 * @file
 * EXT3 — extension experiment: graph analytics under bandwidth and
 * latency variation.
 *
 * The paper's workloads exchange values on static, precomputed
 * schedules; graph analytics adds irregular point-to-point traffic
 * whose volume and skew depend on the graph family. This experiment
 * sweeps mechanism x network latency x link bandwidth x graph family
 * for two traffic extremes of the family — BFS (sparse, frontier-
 * driven bursts) and push PageRank (dense, one message per cross edge
 * every round) — through the parallel sweep engine.
 *
 * Each row also reports the runtime the critical-path predictor
 * (src/obs/predict.hh) forecasts for that row's latency and bandwidth
 * from one instrumented base-configuration run per (family, app,
 * mechanism), and its ratio to the simulated runtime. The base row
 * replays its own capture, so it reads exactly 1.00.
 *
 * Usage: ext3_graph_sweep [--quick|--full] [--jobs N] [--cache-dir D]
 */

#include <iomanip>

#include "bench_common.hh"
#include "exp/sweep_engine.hh"

int
main(int argc, char **argv)
{
    using namespace alewife;
    using workload::GraphFamily;
    const auto scale = bench::parseScale(argc, argv);
    bench::BenchEngine engine(argc, argv, scale);

    const std::vector<GraphFamily> families = {
        GraphFamily::Uniform, GraphFamily::RMat, GraphFamily::Grid2d};
    const std::vector<std::string> appNames = {"bfs",
                                               "pagerank-push"};
    struct NetPoint
    {
        double hopNs, linkMBps;
    };
    const std::vector<NetPoint> net = {
        {40.0, 45.0},   // Alewife baseline
        {400.0, 45.0},  // 10x hop latency
        {40.0, 9.0},    // 1/5 link bandwidth
        {400.0, 9.0},   // both
    };
    const auto mechs = bench::allMechs();

    std::cout << "EXT3: graph analytics vs latency and bandwidth\n\n";
    std::cout << std::left << std::setw(9) << "family" << std::setw(15)
              << "app" << std::setw(7) << "mech" << std::right
              << std::setw(8) << "hop ns" << std::setw(8) << "MB/s"
              << std::setw(12) << "cycles" << std::setw(12) << "pred"
              << std::setw(8) << "ratio" << '\n';

    for (const GraphFamily fam : families) {
        for (const std::string &name : appNames) {
            const auto p = bench::graphParams(scale, fam);
            const auto factory = apps::graph::makeApp(name, p);

            // One instrumented base run per mechanism prices every
            // latency/bandwidth variant. Each capture is dropped once
            // priced, so only one dependency graph is alive at a time.
            std::vector<std::vector<double>> pred(
                net.size(), std::vector<double>(mechs.size()));
            for (std::size_t mi = 0; mi < mechs.size(); ++mi) {
                core::RunSpec spec;
                spec.mechanism = mechs[mi];
                obs::CritPathRecorder rec;
                core::runApp(factory, spec, /*verify_fatal=*/true,
                             /*auditor=*/nullptr, /*driver=*/nullptr,
                             &rec);
                const obs::Predictor predictor(rec.graph());
                for (std::size_t ni = 0; ni < net.size(); ++ni) {
                    obs::PredictTarget t = predictor.baseTarget();
                    t.machine.hopNs = net[ni].hopNs;
                    t.machine.linkMBps = net[ni].linkMBps;
                    pred[ni][mi] = predictor.predictRuntimeCycles(t);
                }
            }

            // The full matrix goes through the sweep engine:
            // parallel and cached.
            std::vector<exp::Job> jobs;
            for (const NetPoint &n : net) {
                for (const core::Mechanism m : mechs) {
                    exp::Job j;
                    j.app = factory;
                    j.spec.machine.hopNs = n.hopNs;
                    j.spec.machine.linkMBps = n.linkMBps;
                    j.spec.mechanism = m;
                    j.appKey = apps::graph::catalogKey(name, p);
                    jobs.push_back(std::move(j));
                }
            }
            exp::SweepEngine eng(engine.options(
                "ext3-" + name + "-"
                + workload::graphFamilyName(fam)));
            const auto results = eng.run(jobs);

            std::size_t i = 0;
            for (std::size_t ni = 0; ni < net.size(); ++ni) {
                const NetPoint &n = net[ni];
                for (std::size_t mi = 0; mi < mechs.size(); ++mi) {
                    const double cyc = results[i].runtimeCycles;
                    std::cout
                        << std::left << std::setw(9)
                        << workload::graphFamilyName(fam)
                        << std::setw(15) << name << std::setw(7)
                        << core::mechanismShortName(mechs[mi])
                        << std::right << std::fixed
                        << std::setprecision(0) << std::setw(8)
                        << n.hopNs << std::setw(8) << n.linkMBps
                        << std::setw(12) << cyc << std::setw(12)
                        << pred[ni][mi] << std::setprecision(2)
                        << std::setw(8) << pred[ni][mi] / cyc << '\n';
                    ++i;
                }
            }
        }
        std::cout << '\n';
    }
    std::cout << "(pred = runtime predicted from one critical-path "
                 "capture per family/app/mech\n at the base row; ratio = "
                 "pred / cycles, exactly 1.00 on the base row.)\n";
    return 0;
}
