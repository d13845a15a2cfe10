/**
 * @file
 * Example: a command-line sweep driver over the public experiment API,
 * running through the parallel orchestration engine (src/exp/).
 *
 * Runs any paper application under any mechanism subset across any of
 * the paper sweeps without writing code:
 *
 *   sweep_cli --app em3d --mechs SM,MP-I --sweep bisection \
 *             --points 18,9,4.5 --jobs 4
 *   sweep_cli --app iccg --mechs SM,MP-P --sweep ideal-latency \
 *             --points 15,100,400 --out iccg.json
 *   sweep_cli --app moldyn --sweep clock --points 14,20,40 \
 *             --cache-dir ~/.cache/alewife
 *   sweep_cli --app unstruc --sweep none          # plain Figure-4 row
 *
 * --jobs N       run up to N simulations on worker threads (results
 *                are byte-identical to --jobs 1)
 * --out FILE     also write structured results; .csv extension emits
 *                CSV, anything else schema-versioned JSON
 * --cache-dir D  persist results as JSON under D and skip any run
 *                already cached there; a killed sweep rerun with the
 *                same D re-simulates only the points it had not
 *                finished
 * --progress     report jobs done / running and sim-events/sec
 * --farm-dir D   start the batch as a farm campaign under D: the only
 *                way to start one. `farm_cli worker --farm-dir D`
 *                processes on any host sharing D join it; --jobs N
 *                adds N in-process workers, and --jobs 0 (allowed
 *                only here) leaves every job to external workers.
 *                Output is byte-identical to a local run; a job the
 *                farm gives up on makes the exit status 3
 *
 * Every run is verified against the application's sequential
 * reference; the driver exits non-zero on any mismatch. Unknown
 * --app / --sweep / mechanism names are reported and rejected.
 */

#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/graph/catalog.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "exp/farm.hh"
#include "exp/result_cache.hh"
#include "exp/serialize.hh"
#include "exp/warm_start.hh"
#include "obs/critpath.hh"
#include "obs/predict.hh"

using namespace alewife;

namespace {

struct Options
{
    std::string app = "em3d";
    std::string graph = "uniform"; ///< graph family for graph apps
    std::string sweep = "none";
    std::vector<core::Mechanism> mechs;
    std::vector<double> points;
    double scale = 1.0;
    int jobs = 1;
    std::string out;      ///< structured output file; "" = none
    std::string cacheDir; ///< on-disk result cache; "" = no cache
    bool progress = false;
    obs::RecorderOptions obs; ///< --trace-out/--metrics-out/--obs-interval
    std::uint64_t warmStart = 0; ///< warm-start fork point (sim events)
    std::string farmDir; ///< distributed farm campaign directory
    bool predict = false; ///< overlay the analytic prediction
    core::DelayInjection inject; ///< one-off delay injection report
};

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: sweep_cli [--app em3d|unstruc|iccg|moldyn|stream|\n"
           "                        bfs|pagerank|pagerank-push|sssp]\n"
           "                 [--graph uniform|rmat|grid] (graph apps "
           "only)\n"
           "                 [--mechs SM,SM+PF,MP-I,MP-P,BULK]\n"
           "                 [--sweep none|bisection|msglen|clock|"
           "ideal-latency]\n"
           "                 [--points x1,x2,...]\n"
           "                 [--scale f]   (workload size multiplier)\n"
           "                 [--jobs n]    (parallel simulations; "
           "0 = farm\n"
           "                                coordinator only, needs "
           "--farm-dir)\n"
           "                 [--out file]  (.csv -> CSV, else JSON)\n"
           "                 [--cache-dir dir]\n"
           "                 [--progress]\n"
           "                 [--trace-out file.json]   (Perfetto "
           "timeline, one per run)\n"
           "                 [--metrics-out file.json] (metrics "
           "registry; sweep-merged)\n"
           "                 [--obs-interval cycles]   (interval "
           "profiling period)\n"
           "                 [--farm-dir dir]      (start the batch as "
           "a farm campaign;\n"
           "                                        `farm_cli worker "
           "--farm-dir dir` joins)\n"
           "                 [--warm-start events] (ideal-latency only: "
           "fork every\n"
           "                                        latency variant "
           "from one snapshot)\n"
           "                 [--predict]           (bisection/clock "
           "sweeps: overlay the\n"
           "                                        analytic "
           "prediction from one\n"
           "                                        instrumented run "
           "per mechanism,\n"
           "                                        with per-point "
           "error and MAPE)\n"
           "                 [--inject-node n --inject-at cyc "
           "--inject-cycles c]\n"
           "                                       (stall node n for c "
           "cycles at cycle\n"
           "                                        cyc; runs base + "
           "injected once per\n"
           "                                        mechanism and "
           "prints the propagation/\n"
           "                                        decay report; "
           "no sweep)\n";
    std::exit(2);
}

/** Reject with a message naming the offending value, then usage. */
[[noreturn]] void
badValue(const std::string &what, const std::string &value,
         const std::string &valid)
{
    std::cerr << "sweep_cli: unknown " << what << " '" << value
              << "' (valid: " << valid << ")\n\n";
    usage();
}

const char *const kValidApps =
    "em3d, unstruc, iccg, moldyn, stream, bfs, pagerank, "
    "pagerank-push, sssp";
const char *const kValidSweeps =
    "none, bisection, msglen, clock, ideal-latency";

double
parseNum(const std::string &opt, const std::string &text)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(text, &used);
        if (used == text.size())
            return v;
    } catch (const std::exception &) {
    }
    badValue(opt + " value", text, "a number");
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "sweep_cli: " << a
                          << " requires a value\n\n";
                usage();
            }
            return argv[++i];
        };
        if (a == "--app") {
            o.app = next();
        } else if (a == "--graph") {
            o.graph = next();
            bool known = false;
            for (const char *f : {"uniform", "rmat", "grid"})
                known |= o.graph == f;
            if (!known)
                badValue("--graph value", o.graph,
                         "uniform, rmat, grid");
        } else if (a == "--mechs") {
            for (const auto &name : splitCommas(next())) {
                const auto m = core::mechanismFromName(name);
                if (!m)
                    badValue("mechanism", name,
                             "SM, SM+PF, MP-I, MP-P, BULK");
                o.mechs.push_back(*m);
            }
        } else if (a == "--sweep") {
            o.sweep = next();
        } else if (a == "--points") {
            for (const auto &p : splitCommas(next()))
                o.points.push_back(parseNum("--points", p));
        } else if (a == "--scale") {
            o.scale = parseNum("--scale", next());
        } else if (a == "--jobs") {
            const std::string v = next();
            o.jobs = static_cast<int>(parseNum("--jobs", v));
            if (o.jobs < 0)
                badValue("--jobs value", v,
                         "a positive integer; 0 only with --farm-dir");
        } else if (a == "--out") {
            o.out = next();
        } else if (a == "--cache-dir") {
            o.cacheDir = next();
        } else if (a == "--farm-dir") {
            o.farmDir = next();
        } else if (a == "--warm-start") {
            const std::string v = next();
            const double events = parseNum("--warm-start", v);
            if (events < 1)
                badValue("--warm-start value", v,
                         "a positive event count");
            o.warmStart = static_cast<std::uint64_t>(events);
        } else if (a == "--trace-out") {
            o.obs.traceOut = next();
        } else if (a == "--metrics-out") {
            o.obs.metricsOut = next();
        } else if (a == "--obs-interval") {
            const std::string v = next();
            o.obs.intervalCycles = parseNum("--obs-interval", v);
            if (o.obs.intervalCycles <= 0)
                badValue("--obs-interval value", v,
                         "a positive cycle count");
        } else if (a == "--predict") {
            o.predict = true;
        } else if (a == "--inject-node") {
            const std::string v = next();
            o.inject.node =
                static_cast<NodeId>(parseNum("--inject-node", v));
            if (o.inject.node < 0)
                badValue("--inject-node value", v, "a node id >= 0");
        } else if (a == "--inject-at") {
            const std::string v = next();
            o.inject.atCycles = parseNum("--inject-at", v);
            if (o.inject.atCycles < 0)
                badValue("--inject-at value", v, "a cycle count >= 0");
        } else if (a == "--inject-cycles") {
            const std::string v = next();
            o.inject.stallCycles = parseNum("--inject-cycles", v);
            if (o.inject.stallCycles <= 0)
                badValue("--inject-cycles value", v,
                         "a positive cycle count");
        } else if (a == "--progress") {
            o.progress = true;
        } else if (a == "--help" || a == "-h") {
            usage();
        } else {
            std::cerr << "sweep_cli: unknown option '" << a << "'\n\n";
            usage();
        }
    }
    if (o.jobs == 0 && o.farmDir.empty())
        badValue("--jobs value", "0",
                 "a positive integer; 0 only with --farm-dir");
    if (o.mechs.empty()) {
        const auto all = core::allMechanisms();
        o.mechs.assign(all.begin(), all.end());
    }
    return o;
}

/**
 * Ideal-latency sweep through one warm-start fork per shared-memory
 * mechanism: the base run executes at the first latency point, every
 * other point resumes from the snapshot captured at @p forkEvents and
 * switches only the (restore-safe) emulated latency. Message-passing
 * mechanisms are latency-insensitive here and run once, flat, exactly
 * as in the cold idealLatencySweep.
 */
std::vector<core::MechSeries>
warmIdealLatencySweep(const core::AppFactory &factory,
                      const MachineConfig &base,
                      const std::vector<core::Mechanism> &mechs,
                      const std::vector<double> &latencies,
                      std::uint64_t forkEvents)
{
    std::vector<core::MechSeries> out;
    for (core::Mechanism m : mechs) {
        core::MechSeries s;
        s.mech = m;
        if (core::isSharedMemory(m)) {
            exp::WarmStartSweep sweep;
            sweep.base.machine = base;
            sweep.base.machine.idealNet = true;
            sweep.base.machine.idealNetLatencyCycles = latencies[0];
            sweep.base.mechanism = m;
            sweep.forkEvents = forkEvents;
            for (std::size_t i = 1; i < latencies.size(); ++i) {
                MachineConfig v = sweep.base.machine;
                v.idealNetLatencyCycles = latencies[i];
                sweep.variants.push_back(std::move(v));
            }
            const auto results = exp::runWarmStartSweep(factory, sweep);
            for (std::size_t i = 0; i < latencies.size(); ++i)
                s.points.push_back({latencies[i], results[i]});
        } else {
            core::RunSpec spec;
            spec.machine = base;
            spec.mechanism = m;
            const auto r = core::runApp(factory, spec);
            for (double lat : latencies)
                s.points.push_back({lat, r});
        }
        out.push_back(std::move(s));
    }
    return out;
}

/** Build the workload through the same factory the farm workers use,
 *  so a farmed batch is parameterized byte-for-byte like a local one. */
core::AppFactory
makeFactory(const exp::FarmWorkload &w)
{
    std::string err;
    auto factory = exp::makeWorkloadFactory(w, &err);
    if (!factory) {
        if (!apps::graph::findApp(w.app) && w.app != "em3d"
            && w.app != "unstruc" && w.app != "iccg"
            && w.app != "moldyn" && w.app != "stream")
            badValue("--app", w.app, kValidApps);
        std::cerr << "sweep_cli: " << err << "\n\n";
        usage();
    }
    return factory;
}

/** After a farmed batch: report any jobs the farm gave up on and turn
 *  them into a non-zero exit so scripts notice the partial result. */
int
quarantineExit(const exp::FarmReport &r)
{
    if (r.quarantined.empty())
        return 0;
    std::cerr << "sweep_cli: " << r.quarantined.size()
              << " job(s) quarantined after exhausting retries "
                 "(results above are partial):\n";
    for (const auto &q : r.quarantined)
        std::cerr << "  job " << q.id << " [" << q.mechanism << "] "
                  << q.appKey << ", " << q.attempts
                  << " attempts: " << q.error << "\n";
    return 3;
}

/**
 * Deterministic one-off delay injection: for each selected mechanism,
 * run the workload once undisturbed and once with RunSpec::delay set,
 * then print the propagation/decay report (finish shift, nodes
 * shifted, and the completion/barrier shift by mesh distance from the
 * injected node).
 */
int
runInjection(const core::AppFactory &factory, const Options &o)
{
    for (core::Mechanism m : o.mechs) {
        core::RunSpec base;
        base.mechanism = m;
        obs::CritPathRecorder baseRec;
        const auto r0 = core::runApp(factory, base, true, nullptr,
                                     nullptr, &baseRec);

        core::RunSpec inj = base;
        inj.delay = o.inject;
        obs::CritPathRecorder injRec;
        const auto r1 = core::runApp(factory, inj, true, nullptr,
                                     nullptr, &injRec);

        const obs::InjectionReport rep = obs::compareInjectedRuns(
            baseRec.graph(), injRec.graph(), o.inject.node);

        std::cout << core::mechanismShortName(m) << ": stall node "
                  << o.inject.node << " for " << o.inject.stallCycles
                  << " cycles at cycle " << o.inject.atCycles << "\n"
                  << std::fixed << std::setprecision(1)
                  << "  runtime " << r0.runtimeCycles << " -> "
                  << r1.runtimeCycles << " cycles (finish shift +"
                  << rep.finishShiftCycles << ")\n"
                  << "  nodes shifted > 1 cycle: " << rep.nodesShifted
                  << " of " << rep.nodes.size() << "\n"
                  << "  propagation by mesh distance from node "
                  << o.inject.node << ":\n";
        std::map<int, const obs::InjectionReport::NodeImpact *> rings;
        for (const auto &ni : rep.nodes) {
            auto &best = rings[ni.hopsFromInjection];
            if (!best || ni.doneShiftCycles > best->doneShiftCycles)
                best = &ni;
        }
        for (const auto &[hops, ni] : rings)
            std::cout << "    " << std::setw(2) << hops
                      << " hops: completion +" << ni->doneShiftCycles
                      << " cyc, worst barrier +"
                      << ni->maxBarrierShiftCycles << " cyc ("
                      << ni->barriersShifted << " of "
                      << ni->barrierEpisodes << " episodes shifted)\n";
        std::cout << "\n";
    }
    return 0;
}

void
writeStructured(const std::string &path, const exp::Json &doc,
                const std::function<void(std::ostream &)> &csv)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "sweep_cli: cannot write " << path << "\n";
        std::exit(1);
    }
    const bool wantCsv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (wantCsv)
        csv(out);
    else
        out << doc.dump(2) << '\n';
    std::cerr << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    const exp::FarmWorkload workload{o.app, o.graph, o.scale};
    const auto factory = makeFactory(workload);
    const MachineConfig base;

    exp::ResultCache cache(o.cacheDir);
    exp::EngineOptions opts;
    opts.jobs = o.jobs;
    opts.cache = o.cacheDir.empty() ? nullptr : &cache;
    // Workload identity for the cache: app name + everything that
    // changes the generated workload (scale, and the graph family
    // for the graph-analytics apps).
    opts.appKey = workload.appKey();
    opts.obs = o.obs;
    opts.farmDir = o.farmDir;
    opts.workload = workload;
    exp::FarmReport farmReport;
    opts.farmReport = &farmReport;
    if (o.warmStart > 0 && o.sweep != "ideal-latency") {
        std::cerr << "sweep_cli: --warm-start only applies to "
                     "--sweep ideal-latency (the emulated latency is "
                     "the one restore-safe sweep knob)\n\n";
        usage();
    }
    if (o.inject.node >= 0 || o.inject.stallCycles > 0) {
        if (!o.inject.enabled()) {
            std::cerr << "sweep_cli: delay injection needs both "
                         "--inject-node and --inject-cycles "
                         "(--inject-at defaults to cycle 0)\n\n";
            usage();
        }
        if (o.sweep != "none") {
            std::cerr << "sweep_cli: delay injection is a point "
                         "experiment; drop --sweep " << o.sweep
                      << "\n\n";
            usage();
        }
        return runInjection(factory, o);
    }
    if (o.predict && o.sweep != "bisection" && o.sweep != "clock") {
        std::cerr << "sweep_cli: --predict overlays the bisection and "
                     "clock sweeps (the two axes the analytic model "
                     "re-costs); drop it for --sweep " << o.sweep
                  << "\n\n";
        usage();
    }
    if (o.progress) {
        opts.onProgress = [](const exp::Progress &p) {
            std::cerr << "  [" << p.done << "/" << p.queued << "] "
                      << p.running << " running, " << p.cacheHits
                      << " cached, "
                      << static_cast<std::uint64_t>(p.eventsPerSec())
                      << " sim-events/s\n";
        };
    }

    if (o.sweep == "none") {
        const auto results =
            core::runAllMechanisms(factory, base, o.mechs, opts);
        core::printBreakdownTable(std::cout, o.app, results);
        core::printVolumeTable(std::cout, o.app, results);
        if (!o.out.empty()) {
            writeStructured(o.out, exp::batchToJson(o.app, results),
                            [&](std::ostream &os) {
                                exp::writeBatchCsv(os, results);
                            });
        }
        return quarantineExit(farmReport);
    }

    std::vector<core::MechSeries> series;
    std::string xlabel;
    std::vector<double> predictKnobs;
    std::function<obs::PredictTarget(double)> predictTarget;
    if (o.sweep == "bisection") {
        auto pts = o.points.empty()
                       ? std::vector<double>{18, 9, 4.5}
                       : o.points;
        series =
            core::bisectionSweep(factory, base, o.mechs, pts, 64, opts);
        xlabel = "bisection B/cyc";
        predictKnobs = pts;
        predictTarget = [&base](double b) {
            obs::PredictTarget t;
            t.machine = base;
            t.crossBytesPerCycle = base.bisectionBytesPerCycle() - b;
            t.crossMessageBytes = 64;
            return t;
        };
    } else if (o.sweep == "msglen") {
        auto pts = o.points.empty()
                       ? std::vector<double>{16, 64, 256}
                       : o.points;
        std::vector<std::uint32_t> lens;
        for (double p : pts) {
            // Converting a double outside uint32's range is undefined.
            if (!(p >= 1.0 && p <= 4294967295.0)) {
                std::cerr << "sweep_cli: msglen point " << p
                          << " is not a message size in bytes (1 to "
                             "4294967295)\n";
                return 2;
            }
            lens.push_back(static_cast<std::uint32_t>(p));
        }
        // Consume half the native bisection, as in Figure 7.
        series = core::msgLenSweep(factory, base, o.mechs,
                                   base.bisectionBytesPerCycle() / 2.0,
                                   lens, opts);
        xlabel = "cross msg bytes";
    } else if (o.sweep == "clock") {
        auto pts = o.points.empty()
                       ? std::vector<double>{14, 20, 40}
                       : o.points;
        series = core::clockSweep(factory, base, o.mechs, pts, opts);
        xlabel = "net lat (cyc)";
        predictKnobs = pts;
        predictTarget = [&base](double mhz) {
            obs::PredictTarget t;
            t.machine = base;
            t.machine.procMhz = mhz;
            return t;
        };
    } else if (o.sweep == "ideal-latency") {
        auto pts = o.points.empty()
                       ? std::vector<double>{15, 100, 400}
                       : o.points;
        series = o.warmStart > 0
                     ? warmIdealLatencySweep(factory, base, o.mechs,
                                             pts, o.warmStart)
                     : core::idealLatencySweep(factory, base, o.mechs,
                                               pts, opts);
        xlabel = "latency (cyc)";
    } else {
        badValue("--sweep", o.sweep, kValidSweeps);
    }
    core::printSeries(std::cout, o.app + " / " + o.sweep, xlabel,
                      series);
    if (o.predict) {
        std::cout << "\npredicted from one instrumented run per mechanism"
                     " (one analytic solve per point):\n";
        core::printPredicted(std::cout, "  ", factory, base, series,
                             predictKnobs, predictTarget);
    }
    if (!o.out.empty()) {
        writeStructured(
            o.out,
            exp::seriesToJson(o.app + " / " + o.sweep, xlabel, series),
            [&](std::ostream &os) {
                exp::writeSeriesCsv(os, xlabel, series);
            });
    }
    return quarantineExit(farmReport);
}
