/**
 * @file
 * Campaign benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--size full|smoke] [--plant none|corrupt-cache|mismatch]
 *             [--work-dir DIR]
 *
 * --trace 0 generates the inputs repeatedly (the median is setup_s),
 * then runs whole rounds of the workload until S seconds have passed
 * and reports the end-to-end metrics. --trace 1 runs one untraced
 * round and one traced round, checks that they agree bit for bit, and
 * reports the per-layer metrics and where the traced round's time
 * went. Every answer is checked either way. The last line of stdout is
 * one JSON object (correct, attempted, failed, metrics); the exit code
 * is 1 when any check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    Plant plant = Plant::None;
    std::string workDir = ".bench_out";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload fig08_cold|graph_mp|"
                 "sweep_modes --seed N --seconds S --trace 0|1\n"
                 "                 [--size full|smoke] [--plant "
                 "none|corrupt-cache|mismatch] [--work-dir DIR]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace" && (v == "0" || v == "1"))
            o.trace = v == "1";
        else if (a == "--size" && (v == "full" || v == "smoke"))
            o.size = v == "smoke" ? Size::Smoke : Size::Full;
        else if (a == "--plant" && v == "none")
            o.plant = Plant::None;
        else if (a == "--plant" && v == "corrupt-cache")
            o.plant = Plant::CorruptCache;
        else if (a == "--plant" && v == "mismatch")
            o.plant = Plant::Mismatch;
        else if (a == "--work-dir")
            o.workDir = v;
        else
            usage("bad argument " + a + " " + v);
    }
    if (!findWorkload(o.workload))
        usage("unknown workload '" + o.workload + "'");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile @p q of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Metrics in report order; the JSON keeps this order too. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        list_.push_back({name, value, unit});
    }

    void
    print(std::ostream &os) const
    {
        for (const auto &m : list_) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "  %-28s %16.6g %s\n",
                          m.name.c_str(), m.value, m.unit.c_str());
            os << buf;
        }
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < list_.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", list_[i].value);
            out += (i ? ", \"" : "\"") + list_[i].name
                   + "\": {\"value\": " + buf + ", \"unit\": \""
                   + list_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct M
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<M> list_;
};

void
printCalibration(const std::vector<CalibRow> &rows, double meanErr)
{
    std::printf("Figure-3 calibration (simulated cycles vs paper):\n");
    for (const CalibRow &r : rows) {
        char paper[32];
        if (r.paperLo == r.paperHi)
            std::snprintf(paper, sizeof paper, "%.0f", r.paperLo);
        else
            std::snprintf(paper, sizeof paper, "%.0f-%.0f", r.paperLo,
                          r.paperHi);
        std::printf("  %-30s %8.1f  paper %-7s  err %5.1f%%\n", r.what,
                    r.measured, paper, r.errPct());
    }
    std::printf("  mean error %.2f%% over %zu rows\n", meanErr,
                rows.size());
}

/** Stats of every round, by name, as the median over rounds. */
double
medianStat(const std::vector<Round> &rounds, const std::string &name)
{
    std::vector<double> v;
    for (const Round &r : rounds) {
        const auto it = r.stats.find(name);
        if (it != r.stats.end())
            v.push_back(it->second);
    }
    return median(v);
}

void
setModeCosts(Metrics &m, const std::vector<Round> &rounds)
{
    for (const char *name :
         {"cold_point_ms", "cached_point_ms", "warm_point_ms",
          "predict_point_ms", "farm_point_ms"})
        m.set(name, medianStat(rounds, name), "ms");
    m.set("predict_mape_pct", medianStat(rounds, "predict_mape_pct"), "%");
}

/** Rounds after the first must reproduce it exactly (determinism). */
void
checkRepeatable(Checks &checks, const std::vector<Round> &rounds)
{
    for (std::size_t k = 1; k < rounds.size(); ++k) {
        bool same = rounds[k].results.size() == rounds[0].results.size();
        for (std::size_t i = 0; same && i < rounds[0].results.size(); ++i)
            same = sameResult(rounds[k].results[i], rounds[0].results[i]);
        checks.check(same, "round " + std::to_string(k)
                               + " differs from round 0");
    }
}

/** --trace 0: setup, timed rounds, end-to-end metrics. */
void
runUntraced(const Options &o, const Workload &wl, Checks &checks,
            Metrics &m)
{
    // A set-up takes milliseconds, so repeat it for a fixed share of
    // host time and keep the median: one slow set-up must not move it.
    constexpr int kMinSetups = 15;
    constexpr double kSetupBudgetS = 0.25;
    std::vector<double> setupS;
    std::vector<Input> inputs;
    const std::int64_t s0 = nowNs();
    while (setupS.size() < kMinSetups
           || static_cast<double>(nowNs() - s0) / 1e9 < kSetupBudgetS) {
        const std::int64_t t0 = nowNs();
        inputs = wl.inputs(o.seed, o.size);
        for (const Input &in : inputs)
            in.factory(); // generate the input and its reference
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    PointLog log;
    Env env{inputs, &log, nullptr, &checks, o.workDir, o.plant};
    std::vector<Round> rounds;
    const std::int64_t t0 = nowNs();
    do {
        rounds.push_back(wl.round(env));
    } while (static_cast<double>(nowNs() - t0) / 1e9 < o.seconds);
    // wall_s is the whole timed phase over the rounds it completed, pooled
    // like sim_events_per_s: the median of the few rounds a run completes
    // swung with the shared host's speed far more than the pooled rates.
    const double timedS = static_cast<double>(nowNs() - t0) / 1e9;
    checkRepeatable(checks, rounds);

    std::vector<double> wall, lat;
    for (std::size_t k = 0; k < rounds.size(); ++k) {
        wall.push_back(rounds[k].wallS);
        std::printf("  round %zu: %.3f s", k, rounds[k].wallS);
        for (const auto &[name, v] : rounds[k].stats)
            std::printf("  %s %.4g", name.c_str(), v);
        std::printf("\n");
    }
    double events = 0.0, pointS = 0.0;
    for (const PointSample &s : log.take()) {
        lat.push_back(s.ms());
        events += static_cast<double>(s.events);
        pointS += s.ms() / 1e3;
    }

    std::printf("%s: %zu rounds in %.3f s (median round %.3f s), %zu "
                "simulated points, %zu setups\n",
                wl.name, rounds.size(), timedS, median(wall), lat.size(),
                setupS.size());
    m.set("setup_s", median(setupS), "s");
    m.set("wall_s", timedS / static_cast<double>(rounds.size()), "s");
    m.set("point_ms_p50", quantile(lat, 0.5), "ms");
    m.set("point_ms_p90", quantile(lat, 0.9), "ms");
    m.set("point_samples", static_cast<double>(lat.size()), "count");
    m.set("sim_events_per_s", ratio(events, pointS), "ev/s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    if (std::string(wl.name) == "sweep_modes")
        setModeCosts(m, rounds);
}

/** Rows of the "where the time went" table, in ms. */
void
printWhereTimeWent(const TraceSession &tr, double wallMs)
{
    const LayerTotals &L = tr.layers();
    std::vector<std::pair<std::string, double>> rows = {
        {"workload.gen", tr.totalMs("workload.gen")},
        {"machine.build", tr.totalMs("machine.build")},
    };
    for (int l = 0; l < kNumLayers; ++l)
        rows.push_back({std::string("step: ") + layerName(l),
                        L.selfNs[l] / 1e6});
    const double ckpt = tr.totalMs("ckpt.save") + tr.totalMs("ckpt.resume");
    rows.push_back({"sim.start+finish",
                    tr.totalMs("sim.run") - L.stepNs / 1e6 - ckpt});
    for (const char *name :
         {"core.verify", "ckpt.save", "ckpt.resume", "exp.cache.lookup",
          "exp.cache.store", "exp.queue.claim", "exp.queue.complete",
          "obs.solve"})
        rows.push_back({name, tr.totalMs(name)});
    double sum = 0.0;
    for (const auto &r : rows)
        sum += r.second;
    rows.push_back({"unattributed", wallMs - sum});

    std::printf("where the time went (traced round, base = %.1f ms "
                "traced wall):\n",
                wallMs);
    for (const auto &[name, ms] : rows)
        std::printf("  %-22s %10.1f ms %6.1f%%\n", name.c_str(), ms,
                    100.0 * ratio(ms, wallMs));
}

/** --trace 1: one untraced round, one traced round, per-layer metrics. */
void
runTraced(const Options &o, const Workload &wl, Checks &checks,
          Metrics &m)
{
    const std::vector<Input> inputs = wl.inputs(o.seed, o.size);
    PointLog log;
    Env plain{inputs, &log, nullptr, &checks, o.workDir, o.plant};
    const Round untraced = wl.round(plain);

    TraceSession tr;
    Env traced{inputs, nullptr, &tr, &checks, o.workDir, o.plant};
    const Round rt = wl.round(traced);

    bool same = rt.results.size() == untraced.results.size();
    for (std::size_t i = 0; same && i < rt.results.size(); ++i)
        same = sameResult(rt.results[i], untraced.results[i]);
    checks.check(same, "traced round differs from the untraced round");
    const auto mape = [](const Round &r) {
        const auto it = r.stats.find("predict_mape_pct");
        return it == r.stats.end() ? 0.0 : it->second;
    };
    checks.check(mape(rt) == mape(untraced),
                 "traced predictions differ from untraced ones");

    const LayerTotals &L = tr.layers();
    const MachineCounters &c = tr.counters();
    const double events = static_cast<double>(tr.events());
    m.set("sim.events", events, "count");
    m.set("sim.step_ns", ratio(L.stepNs, events), "ns/ev");
    for (int l = 0; l < kNumLayers; ++l) {
        // coh.self_ms, net.self_ms, ..., net.cross_self_ms,
        // sim.other_self_ms: a dotted layer name takes "_self_ms".
        const std::string stem = layerName(l);
        const bool dotted = stem.find('.') != std::string::npos;
        m.set(stem + (dotted ? "_self_ms" : ".self_ms"), L.selfNs[l] / 1e6,
              "ms");
    }
    m.set("trace.overhead_pct",
          100.0 * (ratio(rt.wallS, untraced.wallS) - 1.0), "%");
    for (const char *name :
         {"machine.build", "core.verify", "workload.gen"})
        m.set(std::string(name) + "_ms", tr.totalMs(name), "ms");

    m.set("net.packets", static_cast<double>(L.packets), "count");
    m.set("net.hops", static_cast<double>(L.hops), "count");
    m.set("net.link_wait_cycles", L.linkWaitCycles, "cycles");
    m.set("coh.proto_msgs", static_cast<double>(L.protoMsgs), "count");
    m.set("coh.txns", static_cast<double>(L.txns), "count");
    m.set("coh.invalidations", static_cast<double>(c.invalidationsSent),
          "count");
    m.set("coh.limitless_traps", static_cast<double>(c.limitlessTraps),
          "count");
    m.set("mem.hit_ratio",
          ratio(static_cast<double>(c.cacheHits),
                static_cast<double>(c.cacheHits + c.cacheMisses)),
          "ratio");
    m.set("mem.remote_misses", static_cast<double>(c.remoteMisses),
          "count");
    m.set("proc.prefetch_useful_ratio",
          ratio(static_cast<double>(c.prefetchesUseful),
                static_cast<double>(c.prefetchesIssued)),
          "ratio");
    m.set("proc.barrier_episodes", static_cast<double>(c.barrierEpisodes),
          "count");
    m.set("proc.lock_retries", static_cast<double>(c.lockRetries),
          "count");
    m.set("msg.handler_runs", static_cast<double>(L.handlerRuns), "count");
    m.set("msg.interrupts", static_cast<double>(c.interruptsTaken),
          "count");
    m.set("msg.polled", static_cast<double>(c.messagesPolled), "count");
    m.set("msg.ni_full_stalls", static_cast<double>(c.niQueueFullStalls),
          "count");

    m.set("exp.cache.lookup_ms", tr.totalMs("exp.cache.lookup"), "ms");
    m.set("exp.cache.hit_ratio",
          ratio(tr.tally("exp.cache.hits"), tr.tally("exp.cache.lookups")),
          "ratio");
    m.set("exp.cache.store_ms", tr.totalMs("exp.cache.store"), "ms");
    m.set("exp.queue.claim_ms", tr.totalMs("exp.queue.claim"), "ms");
    m.set("exp.queue.complete_ms", tr.totalMs("exp.queue.complete"), "ms");
    m.set("exp.farm.reclaims", tr.tally("exp.farm.reclaims"), "count");
    m.set("exp.farm.retries", tr.tally("exp.farm.retries"), "count");
    m.set("exp.warm.base_ms", tr.totalMs("exp.warm.base"), "ms");
    m.set("exp.warm.variant_ms", tr.totalMs("exp.warm.variant"), "ms");
    m.set("ckpt.save_ms", tr.totalMs("ckpt.save"), "ms");
    m.set("ckpt.resume_ms", tr.totalMs("ckpt.resume"), "ms");
    m.set("ckpt.snapshot_mb",
          ratio(tr.tally("ckpt.snapshot_bytes"), tr.tally("ckpt.snapshots"))
              / 1e6,
          "MB");
    m.set("obs.capture_ms", tr.totalMs("obs.capture"), "ms");
    m.set("obs.graph_mb",
          ratio(tr.tally("obs.graph_bytes"),
                static_cast<double>(tr.count("obs.capture")))
              / 1e6,
          "MB");
    m.set("obs.solve_ms", tr.totalMs("obs.solve"), "ms");
    setModeCosts(m, {untraced});

    printWhereTimeWent(tr, rt.wallS * 1e3);
    const std::string path = o.workDir + "/trace-" + wl.name + "-seed"
                             + std::to_string(o.seed) + ".json";
    tr.write(path);
    std::printf("trace spans written to %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    const Workload &wl = *findWorkload(o.workload);
    std::filesystem::create_directories(o.workDir);

#ifdef NDEBUG
    const char *assertions = "off";
#else
    const char *assertions = "on";
#endif
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d size=%s\n",
                wl.name, static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0,
                o.size == Size::Smoke ? "smoke" : "full");
    std::printf("host: cpu=\"%s\" nproc=%u build=%s assertions=%s%s\n",
                cpuModel().c_str(), std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, assertions,
                std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0
                    ? ""
                    : " (WARNING: not a Release build)");

    const std::vector<CalibRow> calib = calibrate();
    double calibErr = 0.0;
    for (const CalibRow &r : calib)
        calibErr += r.errPct();
    calibErr /= static_cast<double>(calib.size());
    printCalibration(calib, calibErr);

    Checks checks;
    Metrics m;
    if (o.trace)
        runTraced(o, wl, checks, m);
    else
        runUntraced(o, wl, checks, m);
    m.set("calib_err_pct", calibErr, "%");
    m.set("failed_frac",
          ratio(static_cast<double>(checks.failed),
                static_cast<double>(checks.attempted)),
          "ratio");

    std::printf("checks: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    for (const std::string &f : checks.failures)
        std::printf("  FAILED: %s\n", f.c_str());
    std::printf("metrics (%s):\n", o.trace ? "per layer, traced run"
                                           : "end to end");
    m.print(std::cout);
    std::cout << "{\"correct\": " << (checks.failed ? "false" : "true")
              << ", \"attempted\": " << checks.attempted
              << ", \"failed\": " << checks.failed
              << ", \"metrics\": " << m.json() << "}" << std::endl;
    std::filesystem::remove_all(o.workDir + "/modes");
    return checks.failed ? 1 : 0;
}
