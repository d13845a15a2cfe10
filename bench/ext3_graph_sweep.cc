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
 * Each row also reports the analytic communication-cost prediction of
 * the per-edge max-rate/queue-aware model (src/apps/graph/cost_model,
 * after arXiv:1806.02030) evaluated on the measured per-phase traffic
 * of a base-configuration run: traffic is deterministic and
 * config-independent, so one base run per (family, app, mechanism)
 * prices every latency/bandwidth variant.
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

            // One base run per mechanism collects the deterministic
            // per-phase traffic the analytic model prices.
            std::vector<apps::graph::TrafficStats> traffic;
            double valuesPerMsg = 1.0;
            for (const core::Mechanism m : mechs) {
                auto app = factory();
                auto &gapp =
                    dynamic_cast<apps::graph::GraphAppBase &>(*app);
                core::RunSpec spec;
                spec.mechanism = m;
                core::runApp(*app, spec, true);
                traffic.push_back(gapp.traffic());
                valuesPerMsg = gapp.costModel().valuesPerMsg;
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
            for (const NetPoint &n : net) {
                for (std::size_t mi = 0; mi < mechs.size(); ++mi) {
                    MachineConfig cfg;
                    cfg.hopNs = n.hopNs;
                    cfg.linkMBps = n.linkMBps;
                    const auto model =
                        apps::graph::CostModel::fromConfig(
                            cfg, valuesPerMsg);
                    const double pred =
                        model.predictCommCycles(traffic[mi]);
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
                        << pred << std::setprecision(2)
                        << std::setw(8) << pred / cyc << '\n';
                    ++i;
                }
            }
        }
        std::cout << '\n';
    }
    std::cout << "(pred = analytic comm-cycle estimate from measured "
                 "per-phase traffic;\n ratio < 1 expected — the model "
                 "prices communication only.)\n";
    return 0;
}
