/**
 * @file
 * Shared helpers for the figure/table regeneration benches.
 *
 * Every bench prints the rows or series of one paper artifact. The
 * workload sizes are scaled down from the paper's (the simulator runs
 * every protocol event of every run), but preserve the structural
 * ratios that drive the results; pass --full for sizes closer to the
 * paper's, --quick for smoke-test sizes.
 *
 * All benches also accept --jobs N to fan independent simulations out
 * over worker threads, and --cache-dir DIR to persist results between
 * invocations — see BenchEngine below.
 */

#ifndef ALEWIFE_BENCH_COMMON_HH
#define ALEWIFE_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "apps/em3d.hh"
#include "apps/graph/catalog.hh"
#include "apps/iccg.hh"
#include "apps/moldyn.hh"
#include "apps/stream.hh"
#include "apps/unstruc.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "exp/result_cache.hh"
#include "obs/critpath.hh"
#include "obs/options.hh"
#include "obs/predict.hh"

namespace alewife::bench {

/** Workload scale selected on the command line. */
enum class Scale
{
    Quick,
    Default,
    Full,
};

inline Scale
parseScale(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            return Scale::Quick;
        if (std::strcmp(argv[i], "--full") == 0)
            return Scale::Full;
    }
    return Scale::Default;
}

inline apps::Em3d::Params
em3dParams(Scale s)
{
    apps::Em3d::Params p;
    switch (s) {
      case Scale::Quick:
        p.graph.nodesPerSide = 512;
        p.graph.degree = 6;
        p.iters = 2;
        break;
      case Scale::Default:
        p.graph.nodesPerSide = 2000;
        p.graph.degree = 8;
        p.iters = 3;
        break;
      case Scale::Full:
        p.graph.nodesPerSide = 10000; // the paper's parameters
        p.graph.degree = 10;
        p.iters = 10;
        break;
    }
    return p;
}

inline apps::Unstruc::Params
unstrucParams(Scale s)
{
    apps::Unstruc::Params p;
    switch (s) {
      case Scale::Quick:
        p.mesh.nodes = 600;
        p.iters = 2;
        break;
      case Scale::Default:
        p.mesh.nodes = 2000; // MESH2K size
        p.iters = 2;
        break;
      case Scale::Full:
        p.mesh.nodes = 2000;
        p.iters = 6;
        break;
    }
    return p;
}

inline apps::Iccg::Params
iccgParams(Scale s)
{
    apps::Iccg::Params p;
    switch (s) {
      case Scale::Quick:
        p.matrix.rows = 800;
        break;
      case Scale::Default:
        p.matrix.rows = 2000;
        break;
      case Scale::Full:
        p.matrix.rows = 8000;
        break;
    }
    return p;
}

inline apps::Moldyn::Params
moldynParams(Scale s)
{
    apps::Moldyn::Params p;
    switch (s) {
      case Scale::Quick:
        p.box.molecules = 512;
        p.box.cutoff = 1.3;
        p.iters = 1;
        break;
      case Scale::Default:
        p.box.molecules = 1024;
        p.box.cutoff = 1.4;
        p.iters = 2;
        break;
      case Scale::Full:
        p.box.molecules = 2048;
        p.box.cutoff = 1.5;
        p.iters = 4;
        break;
    }
    return p;
}

inline apps::graph::GraphAppParams
graphParams(Scale s, workload::GraphFamily family)
{
    apps::graph::GraphAppParams p;
    p.graph.family = family;
    switch (s) {
      case Scale::Quick:
        p.graph.vertices = 400;
        p.graph.avgDegree = 5;
        p.iters = 2;
        break;
      case Scale::Default:
        p.graph.vertices = 1024;
        p.graph.avgDegree = 8;
        p.iters = 3;
        break;
      case Scale::Full:
        p.graph.vertices = 4096;
        p.graph.avgDegree = 12;
        p.iters = 5;
        break;
    }
    return p;
}

/** The four paper applications as (name, factory) pairs. */
inline std::vector<std::pair<std::string, core::AppFactory>>
paperApps(Scale s)
{
    return {
        {"EM3D", apps::Em3d::factory(em3dParams(s))},
        {"UNSTRUC", apps::Unstruc::factory(unstrucParams(s))},
        {"ICCG", apps::Iccg::factory(iccgParams(s))},
        {"MOLDYN", apps::Moldyn::factory(moldynParams(s))},
    };
}

/** All five mechanisms as a vector. */
inline std::vector<core::Mechanism>
allMechs()
{
    const auto a = core::allMechanisms();
    return {a.begin(), a.end()};
}

/** --predict: overlay analytically predicted curves on the sweep. */
inline bool
parsePredict(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--predict") == 0)
            return true;
    return false;
}

/**
 * Print the analytically predicted curve next to each measured series
 * (core::printPredicted), then what the prediction cost against the
 * measured sweep, which took @p sweepMs of wall time.
 */
inline void
printPredictedSeries(
    std::ostream &os, const core::AppFactory &factory,
    const MachineConfig &base,
    const std::vector<core::MechSeries> &measured,
    const std::vector<double> &knobs,
    const std::function<obs::PredictTarget(double)> &targetFor,
    double sweepMs)
{
    const auto t0 = std::chrono::steady_clock::now();
    os << "  predicted (one instrumented run per mechanism, then one "
          "analytic solve per point):\n";
    const core::PredictedCost cost = core::printPredicted(
        os, "    ", factory, base, measured, knobs, targetFor);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    os << "    prediction cost: " << measured.size() << " captures ("
       << cost.captureEvents << " simulated events) + " << cost.solves
       << " solves = " << std::setprecision(0) << ms
       << " ms, vs " << sweepMs << " ms for the measured sweep\n";
}

/**
 * Shared orchestration setup for benches. Parses
 *
 *   --jobs N        run up to N simulations concurrently (default 1)
 *   --cache-dir D   persist results as JSON under D; reruns at the
 *                   same scale skip simulations already cached
 *
 * and hands each bench per-app exp::EngineOptions via options(). The
 * cache key includes the workload identity (app name + scale), so
 * --quick and --full runs never collide.
 *
 * Observability flags ride along on every bench:
 *
 *   --trace-out F     Perfetto/Chrome timeline JSON per run
 *   --metrics-out F   metrics-registry JSON (sweep-merged per app)
 *   --obs-interval C  interval-profile sampling period in cycles
 *
 * Output paths are tagged per app (obs::withPathTag with the app
 * name), and the sweep engine tags them again per run, so a bench
 * spanning four apps with parallel jobs never shares a sink.
 */
class BenchEngine
{
  public:
    BenchEngine(int argc, char **argv, Scale scale)
        : cache_(cacheDirArg(argc, argv)), scale_(scale)
    {
        for (int i = 1; i + 1 < argc; ++i) {
            if (std::strcmp(argv[i], "--jobs") == 0)
                jobs_ = std::max(1, std::atoi(argv[i + 1]));
            else if (std::strcmp(argv[i], "--trace-out") == 0)
                obs_.traceOut = argv[i + 1];
            else if (std::strcmp(argv[i], "--metrics-out") == 0)
                obs_.metricsOut = argv[i + 1];
            else if (std::strcmp(argv[i], "--obs-interval") == 0)
                obs_.intervalCycles =
                    std::max(0.0, std::atof(argv[i + 1]));
        }
    }

    /** Engine options for one app's runs; @p appName keys the cache. */
    exp::EngineOptions
    options(const std::string &appName)
    {
        exp::EngineOptions opts;
        opts.jobs = jobs_;
        if (!cache_.dir().empty()) {
            opts.cache = &cache_;
            opts.appKey = appName + "/" + scaleName(scale_);
        }
        if (obs_.any()) {
            opts.obs = obs_;
            if (!opts.obs.traceOut.empty())
                opts.obs.traceOut =
                    obs::withPathTag(opts.obs.traceOut, appName);
            if (!opts.obs.metricsOut.empty())
                opts.obs.metricsOut =
                    obs::withPathTag(opts.obs.metricsOut, appName);
            if (!opts.obs.flightOut.empty())
                opts.obs.flightOut =
                    obs::withPathTag(opts.obs.flightOut, appName);
        }
        return opts;
    }

    int
    jobs() const
    {
        return jobs_;
    }

  private:
    static std::string
    cacheDirArg(int argc, char **argv)
    {
        for (int i = 1; i + 1 < argc; ++i)
            if (std::strcmp(argv[i], "--cache-dir") == 0)
                return argv[i + 1];
        return "";
    }

    static const char *
    scaleName(Scale s)
    {
        switch (s) {
          case Scale::Quick:
            return "quick";
          case Scale::Default:
            return "default";
          case Scale::Full:
            return "full";
        }
        return "?";
    }

    exp::ResultCache cache_;
    Scale scale_;
    int jobs_ = 1;
    obs::RecorderOptions obs_;
};

} // namespace alewife::bench

#endif // ALEWIFE_BENCH_COMMON_HH
