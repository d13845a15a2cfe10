/**
 * @file
 * Example: driving the fault-tolerant distributed sweep farm
 * (src/exp/farm.hh) from the command line. One campaign is a farm
 * directory on a filesystem every participant can see:
 *
 *   # terminal 1 — materialize the campaign and wait for workers
 *   farm_cli coordinator --farm-dir /tmp/farm --app em3d \
 *            --sweep bisection --points 18,9,4.5 --workers 0
 *
 *   # terminals 2..N — claim and run jobs until the queue drains
 *   farm_cli worker --farm-dir /tmp/farm
 *   farm_cli worker --farm-dir /tmp/farm
 *
 *   # anywhere — live campaign status (counts, counters, poison list)
 *   farm_cli status --farm-dir /tmp/farm
 *
 * `kill -9` any worker at any time: the coordinator reaps its lease,
 * re-queues the job with backoff, and another worker warm-resumes from
 * the dead worker's last per-job snapshot. Jobs that fail more than
 * the retry budget are quarantined to the poison list; the sweep
 * completes without them and the coordinator exits non-zero listing
 * them. Set FARM_FAULT=drop-lease|stall-heartbeat|corrupt-result|
 * kill-after-claim in a worker's environment to exercise one recovery
 * path deterministically.
 *
 * The result set is bit-identical (cache key for key) to a local
 * `sweep_cli` run of the same sweep: both sides materialize the same
 * core::SweepPlan and store through the same content-addressed cache.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/graph/catalog.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "exp/farm.hh"
#include "exp/result_cache.hh"
#include "exp/serialize.hh"

using namespace alewife;

namespace {

struct Options
{
    std::string mode; ///< coordinator | worker | status
    std::string farmDir;
    exp::FarmWorkload workload{"em3d", "uniform", 1.0};
    std::string sweep = "none";
    std::vector<core::Mechanism> mechs;
    std::vector<double> points;
    int workers = 1; ///< in-process workers the coordinator adds
    int maxJobs = -1;
    double ckptInterval = 2'000'000.0;
    exp::FarmTuning tuning;
    std::string out;
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
        << "usage: farm_cli coordinator --farm-dir DIR\n"
           "                [--app em3d|unstruc|iccg|moldyn|stream|\n"
           "                       bfs|pagerank|pagerank-push|sssp]\n"
           "                [--graph uniform|rmat|grid] [--scale f]\n"
           "                [--mechs SM,SM+PF,MP-I,MP-P,BULK]\n"
           "                [--sweep none|bisection|msglen|clock|"
           "ideal-latency]\n"
           "                [--points x1,x2,...]\n"
           "                [--workers n]   (in-process workers; 0 = "
           "wait for\n"
           "                                 external `farm_cli "
           "worker`s)\n"
           "                [--out file]\n"
           "                [--lease-ttl-ms n] [--heartbeat-ms n]\n"
           "                [--poll-ms n] [--backoff-ms n]\n"
           "                [--retry-budget n] [--ckpt-interval cyc]\n"
           "       farm_cli worker --farm-dir DIR [--max-jobs n]\n"
           "       farm_cli status --farm-dir DIR\n"
           "\n"
           "FARM_FAULT=drop-lease|stall-heartbeat|corrupt-result|\n"
           "kill-after-claim injects one deterministic fault into a "
           "worker.\n";
    std::exit(2);
}

[[noreturn]] void
badValue(const std::string &what, const std::string &value,
         const std::string &valid)
{
    std::cerr << "farm_cli: unknown " << what << " '" << value
              << "' (valid: " << valid << ")\n\n";
    usage();
}

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
    if (argc < 2)
        usage();
    Options o;
    o.mode = argv[1];
    if (o.mode != "coordinator" && o.mode != "worker"
        && o.mode != "status") {
        if (o.mode != "--help" && o.mode != "-h")
            std::cerr << "farm_cli: unknown subcommand '" << o.mode
                      << "'\n\n";
        usage();
    }
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "farm_cli: " << a
                          << " requires a value\n\n";
                usage();
            }
            return argv[++i];
        };
        if (a == "--farm-dir") {
            o.farmDir = next();
        } else if (a == "--app") {
            o.workload.app = next();
        } else if (a == "--graph") {
            o.workload.graph = next();
        } else if (a == "--scale") {
            o.workload.scale = parseNum("--scale", next());
        } else if (a == "--mechs") {
            for (const auto &m : splitCommas(next())) {
                bool known = false;
                for (core::Mechanism cand : core::allMechanisms())
                    known |= m == core::mechanismShortName(cand)
                             || m == core::mechanismName(cand);
                if (!known)
                    badValue("mechanism", m,
                             "SM, SM+PF, MP-I, MP-P, BULK");
                o.mechs.push_back(core::mechanismFromName(m));
            }
        } else if (a == "--sweep") {
            o.sweep = next();
        } else if (a == "--points") {
            for (const auto &p : splitCommas(next()))
                o.points.push_back(parseNum("--points", p));
        } else if (a == "--workers") {
            o.workers = static_cast<int>(parseNum("--workers", next()));
        } else if (a == "--max-jobs") {
            o.maxJobs =
                static_cast<int>(parseNum("--max-jobs", next()));
        } else if (a == "--out") {
            o.out = next();
        } else if (a == "--lease-ttl-ms") {
            o.tuning.leaseTtlMs = static_cast<std::int64_t>(
                parseNum("--lease-ttl-ms", next()));
        } else if (a == "--heartbeat-ms") {
            o.tuning.heartbeatMs = static_cast<std::int64_t>(
                parseNum("--heartbeat-ms", next()));
        } else if (a == "--poll-ms") {
            o.tuning.pollMs = static_cast<std::int64_t>(
                parseNum("--poll-ms", next()));
        } else if (a == "--backoff-ms") {
            o.tuning.backoffBaseMs = static_cast<std::int64_t>(
                parseNum("--backoff-ms", next()));
        } else if (a == "--retry-budget") {
            o.tuning.retryBudget =
                static_cast<int>(parseNum("--retry-budget", next()));
        } else if (a == "--ckpt-interval") {
            o.ckptInterval = parseNum("--ckpt-interval", next());
        } else if (a == "--help" || a == "-h") {
            usage();
        } else {
            std::cerr << "farm_cli: unknown option '" << a << "'\n\n";
            usage();
        }
    }
    if (o.farmDir.empty()) {
        std::cerr << "farm_cli: --farm-dir is required\n\n";
        usage();
    }
    if (o.mechs.empty()) {
        const auto all = core::allMechanisms();
        o.mechs.assign(all.begin(), all.end());
    }
    return o;
}

int
runCoordinator(const Options &o)
{
    // Validate the workload before materializing anything: a typo'd
    // app name should fail here, not poison every job of a campaign.
    std::string err;
    if (!exp::makeWorkloadFactory(o.workload, &err))
        badValue("--app/--graph", o.workload.app + "/" + o.workload.graph,
                 err);
    const auto kind = core::sweepKindFromName(o.sweep);
    if (!kind)
        badValue("--sweep", o.sweep,
                 "none, bisection, msglen, clock, ideal-latency");

    const MachineConfig base;
    core::SweepRequest req;
    req.kind = *kind;
    req.mechs = o.mechs;
    req.points = o.points;
    if (req.kind == core::SweepKind::Bisection && req.points.empty())
        req.points = {18, 9, 4.5};
    if (req.kind == core::SweepKind::MsgLen) {
        if (req.points.empty())
            req.points = {16, 64, 256};
        req.crossBytesPerCycle = base.bisectionBytesPerCycle() / 2.0;
    }
    if (req.kind == core::SweepKind::Clock && req.points.empty())
        req.points = {14, 20, 40};
    if (req.kind == core::SweepKind::IdealLatency
        && req.points.empty())
        req.points = {15, 100, 400};
    const core::SweepPlan plan = core::planSweep(base, req);

    exp::FarmOptions fo;
    fo.dir = o.farmDir;
    fo.ckptIntervalCycles = o.ckptInterval;
    fo.tuning = o.tuning;
    fo.workers = o.workers;
    fo.onStatus = [](const exp::QueueCounts &c) {
        std::cerr << "  farm: " << c.pending << " pending, "
                  << c.leased << " leased, " << c.done << " done, "
                  << c.poisoned << " poisoned\n";
    };
    exp::FarmCoordinator coord(fo);

    std::vector<exp::FarmJob> jobs;
    jobs.reserve(plan.specs.size());
    const std::string appKey = o.workload.appKey();
    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
        exp::FarmJob job;
        job.id = static_cast<int>(i);
        job.appKey = appKey;
        job.workload = o.workload;
        job.spec = plan.specs[i];
        jobs.push_back(std::move(job));
    }
    const std::vector<core::RunResult> results =
        coord.runCampaign(jobs);

    // Same axis labels as sweep_cli: the two front ends must emit
    // byte-identical documents for the same sweep.
    std::string xlabel = o.sweep;
    if (req.kind == core::SweepKind::Bisection)
        xlabel = "bisection B/cyc";
    else if (req.kind == core::SweepKind::MsgLen)
        xlabel = "cross msg bytes";
    else if (req.kind == core::SweepKind::Clock)
        xlabel = "net lat (cyc)";
    else if (req.kind == core::SweepKind::IdealLatency)
        xlabel = "latency (cyc)";

    const std::string title = o.workload.app + " / " + o.sweep;
    if (req.kind == core::SweepKind::None) {
        core::printBreakdownTable(std::cout, o.workload.app, results);
        core::printVolumeTable(std::cout, o.workload.app, results);
        if (!o.out.empty()) {
            std::ofstream os(o.out);
            os << exp::batchToJson(o.workload.app, results).dump(2)
               << "\n";
        }
    } else {
        const auto series = core::seriesFromPlan(plan, results);
        core::printSeries(std::cout, title, xlabel, series);
        if (!o.out.empty()) {
            std::ofstream os(o.out);
            os << exp::seriesToJson(title, xlabel, series).dump(2)
               << "\n";
        }
    }

    const exp::FarmReport &report = coord.report();
    std::cerr << "farm: " << report.claims << " claims, "
              << report.completions << " completions, "
              << report.reclaims << " reclaims, "
              << report.leaseExpiries << " lease expiries, "
              << report.recomputes << " recomputes, "
              << report.rescued << " rescued\n";
    if (!report.quarantined.empty()) {
        std::cerr << "farm: " << report.quarantined.size()
                  << " job(s) quarantined — results are partial:\n";
        for (const auto &q : report.quarantined)
            std::cerr << "  job #" << q.id << " (" << q.appKey << ", "
                      << q.mechanism << ", " << q.attempts
                      << " attempts): " << q.error << "\n";
        return 3;
    }
    return 0;
}

int
runWorker(const Options &o)
{
    std::string err;
    auto wo = exp::FarmWorker::optionsFromManifest(o.farmDir, &err);
    if (!wo) {
        std::cerr << "farm_cli: " << err
                  << " (start the coordinator first)\n";
        return 2;
    }
    wo->maxJobs = o.maxJobs;
    exp::FarmWorker worker(std::move(*wo));
    const int n = worker.runLoop();
    std::cerr << "farm worker: completed " << n << " job(s)"
              << (worker.degraded() ? " (degraded: queue directory "
                                      "lost; exited cleanly)"
                                    : "")
              << "\n";
    return 0;
}

int
runStatus(const Options &o)
{
    const exp::Json j = exp::readFarmStatus(o.farmDir);
    if (j.isNull()) {
        std::cerr << "farm_cli: " << o.farmDir
                  << " is not a farm directory (no farm.json)\n";
        return 2;
    }
    std::cout << j.dump(2) << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    if (o.mode == "coordinator")
        return runCoordinator(o);
    if (o.mode == "worker")
        return runWorker(o);
    return runStatus(o);
}
