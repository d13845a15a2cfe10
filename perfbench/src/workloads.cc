#include "workloads.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>

#include "core/experiments.hh"
#include "exp/queue.hh"
#include "exp/result_cache.hh"
#include "exp/serialize.hh"
#include "exp/sweep_engine.hh"
#include "exp/warm_start.hh"
#include "obs/critpath.hh"
#include "obs/predict.hh"
#include "sim/logging.hh"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// The paper's sweep points, as bench/fig08, fig09 and fig10 use them.
const std::vector<double> kBisections = {18.0, 14.0, 10.0, 7.0, 5.0, 3.5};
const std::vector<double> kClocksMhz = {14.0, 16.0, 18.0, 20.0, 30.0, 40.0};
const std::vector<double> kIdealLatency = {15, 30, 50, 100, 200, 400};

/** Forked before any network activity, a warm start must equal a cold
 *  start bit for bit (tests/ckpt pin this). */
constexpr std::uint64_t kForkEvents = 2;

/** Farm queue poll period. Jobs here last tens of milliseconds, so the
 *  200 ms default would make the last poll dominate a campaign. */
constexpr std::int64_t kFarmPollMs = 10;
constexpr int kFarmWorkers = 2;

std::vector<core::Mechanism>
allMechs()
{
    const auto a = core::allMechanisms();
    return {a.begin(), a.end()};
}

double
msSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

void
append(std::vector<core::RunResult> &to,
       const std::vector<core::RunResult> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

core::SweepPlan
plan(core::SweepKind kind, std::vector<core::Mechanism> mechs,
     const std::vector<double> &points)
{
    core::SweepRequest req;
    req.kind = kind;
    req.mechs = std::move(mechs);
    req.points = points;
    req.crossMsgBytes = 64;
    return core::planSweep(MachineConfig{}, req);
}

/** Run @p f, inside a span named @p name when the round is traced. */
template <typename F>
decltype(auto)
layerCall(Env &env, const char *name, int req, F &&f)
{
    std::optional<TraceSession::Span> span;
    if (env.trace)
        span.emplace(*env.trace, name, req);
    return f();
}

/** Request id of the point about to run (untraced: unused). */
int
nextReq(const Env &env)
{
    return env.trace ? env.trace->nextReq() : 0;
}

/** Request id of the point that just ran (untraced: unused). */
int
lastReq(const Env &env)
{
    return env.trace ? env.trace->nextReq() - 1 : 0;
}

/** Simulate one point: in a traced round through TraceSession::point,
 *  otherwise through runApp with the timing wrapper. */
core::RunResult
simulate(Env &env, const Input &in, const core::RunSpec &spec)
{
    if (env.trace)
        return env.trace->point(in.factory, spec);
    return core::runApp(timedFactory(in.factory, env.log), spec,
                        /*verify_fatal=*/false);
}

/**
 * Answer every spec of @p p for @p in: untraced through SweepEngine
 * with jobs=1, as the figure benches do; traced point by point,
 * consulting and filling @p cache the way the engine does.
 */
std::vector<core::RunResult>
runPlan(Env &env, const Input &in, const core::SweepPlan &p,
        exp::ResultCache *cache)
{
    if (!env.trace) {
        std::vector<exp::Job> jobs;
        for (const core::RunSpec &spec : p.specs)
            jobs.push_back({timedFactory(in.factory, env.log), spec,
                            cache ? in.appKey : std::string()});
        exp::EngineOptions opts;
        opts.jobs = 1;
        opts.verifyFatal = false;
        opts.cache = cache;
        return exp::SweepEngine(opts).run(jobs);
    }
    std::vector<core::RunResult> out;
    for (const core::RunSpec &spec : p.specs) {
        const std::string key =
            cache ? exp::ResultCache::key(spec, in.appKey) : "";
        if (cache) {
            auto hit = layerCall(env, "exp.cache.lookup", nextReq(env),
                                 [&] { return cache->lookup(key); });
            env.trace->note("exp.cache.lookups", 1);
            if (hit) {
                env.trace->note("exp.cache.hits", 1);
                out.push_back(std::move(*hit));
                continue;
            }
        }
        out.push_back(simulate(env, in, spec));
        if (cache)
            layerCall(env, "exp.cache.store", lastReq(env),
                      [&] { cache->store(key, out.back()); });
    }
    return out;
}

std::string
describe(const char *what, const core::RunResult &r)
{
    return std::string(what) + ": " + r.app + " "
           + core::mechanismShortName(r.mechanism);
}

void
verifyAll(Env &env, const std::vector<core::RunResult> &rs,
          const char *what)
{
    for (const core::RunResult &r : rs)
        env.checks->check(r.verified,
                          describe(what, r) + " failed verification");
}

void
compareAll(Env &env, const std::vector<core::RunResult> &got,
           const std::vector<core::RunResult> &want, const char *what)
{
    if (got.size() != want.size()) {
        env.checks->check(false, std::string(what) + ": "
                                     + std::to_string(got.size())
                                     + " answers for "
                                     + std::to_string(want.size())
                                     + " points");
        return;
    }
    for (std::size_t i = 0; i < got.size(); ++i)
        env.checks->check(sameResult(got[i], want[i]),
                          describe(what, want[i]) + " point "
                              + std::to_string(i)
                              + " differs from the cold result");
}

/** Plant a fault into the entry of @p spec in @p cache (--plant). */
void
plantCacheFault(Plant plant, const exp::ResultCache &cache,
                const core::RunSpec &spec, const std::string &appKey)
{
    const std::string path =
        cache.entryPath(exp::ResultCache::key(spec, appKey));
    if (plant == Plant::CorruptCache) {
        fs::resize_file(path, fs::file_size(path) / 2);
        return;
    }
    const std::optional<exp::Json> doc = exp::readJsonFile(path);
    if (!doc)
        ALEWIFE_FATAL("perfbench: cannot read cache entry ", path);
    core::RunResult r = exp::resultFromJson(doc->at("result"));
    r.runtimeCycles += 1.0;
    exp::Json out = exp::Json::object();
    for (const auto &[k, v] : doc->items())
        out.set(k, k == "result" ? exp::resultToJson(r) : v);
    exp::writeFileAtomic(path, out.dump(2) + "\n");
}

// --- fig08_cold and graph_mp ----------------------------------------

Round
sweepRound(Env &env, const core::SweepPlan &p, const char *what)
{
    Round rd;
    const std::int64_t t0 = nowNs();
    for (const Input &in : env.inputs)
        append(rd.results, runPlan(env, in, p, nullptr));
    rd.wallS = msSince(t0) / 1e3;
    verifyAll(env, rd.results, what);
    return rd;
}

Round
fig08Round(Env &env)
{
    static const core::SweepPlan p =
        plan(core::SweepKind::Bisection, allMechs(), kBisections);
    return sweepRound(env, p, "fig08_cold");
}

Round
graphRound(Env &env)
{
    static const core::SweepPlan p = plan(
        core::SweepKind::Clock,
        {core::Mechanism::MpInterrupt, core::Mechanism::MpPolling,
         core::Mechanism::BulkTransfer},
        kClocksMhz);
    return sweepRound(env, p, "graph_mp");
}

// --- sweep_modes -----------------------------------------------------

/** Predict the Figure-9 sweep from one capture per mechanism; returns
 *  the mean absolute error against @p cold, in percent. */
double
predictMode(Env &env, const core::SweepPlan &p9,
            const std::vector<core::RunResult> &cold)
{
    double errSum = 0.0;
    std::size_t n = 0;
    std::size_t base = 0;
    for (const Input &in : env.inputs) {
        for (std::size_t mi = 0; mi < p9.mechs.size(); ++mi) {
            core::RunSpec spec;
            spec.mechanism = p9.mechs[mi];
            obs::CritPathRecorder rec;
            const core::RunResult captured = layerCall(
                env, "obs.capture", nextReq(env), [&] {
                    if (env.trace)
                        return env.trace->point(in.factory, spec, nullptr,
                                                &rec);
                    return core::runApp(timedFactory(in.factory, env.log),
                                        spec, false, nullptr, nullptr,
                                        &rec);
                });
            // The capture runs the base machine: attaching the recorder
            // must not change the result.
            const std::size_t atBase =
                base + p9.specIndex[mi][3]; // kClocksMhz[3] == 20 MHz
            env.checks->check(sameResult(captured, cold[atBase]),
                              describe("predict capture", captured)
                                  + " differs from the cold result");
            if (env.trace)
                env.trace->note("obs.graph_bytes",
                                static_cast<double>(
                                    rec.graph().memoryBytes()));

            const obs::Predictor pred(rec.graph());
            for (std::size_t j = 0; j < kClocksMhz.size(); ++j) {
                obs::PredictTarget t;
                t.machine.procMhz = kClocksMhz[j];
                const double v = layerCall(
                    env, "obs.solve", lastReq(env),
                    [&] { return pred.predictRuntimeCycles(t); });
                const double meas =
                    cold[base + p9.specIndex[mi][j]].runtimeCycles;
                errSum += 100.0 * std::abs(v - meas) / meas;
                ++n;
            }
        }
        base += p9.specs.size();
    }
    return n ? errSum / static_cast<double>(n) : 0.0;
}

/**
 * Answer @p p9 through a filesystem WorkQueue: every point becomes a
 * durable job, in-process workers claim, simulate, store into the
 * shared cache and complete, and the results are read back from the
 * cache. Untraced: two worker threads plus the coordinator reaping
 * leases. Traced: one worker on this thread, so spans stay serial.
 */
std::vector<core::RunResult>
farmMode(Env &env, const core::SweepPlan &p9, const std::string &dir,
         std::map<std::string, double> &stats)
{
    exp::FarmTuning tuning;
    tuning.pollMs = kFarmPollMs;
    std::vector<exp::FarmJob> jobs;
    std::map<std::string, const Input *> byKey;
    for (const Input &in : env.inputs) {
        byKey[in.appKey] = &in;
        for (const core::RunSpec &spec : p9.specs) {
            exp::FarmJob j;
            j.id = static_cast<int>(jobs.size());
            j.appKey = in.appKey;
            j.spec = spec;
            jobs.push_back(std::move(j));
        }
    }
    exp::WorkQueue coord(dir, "coordinator", tuning);
    if (!coord.initDirs())
        ALEWIFE_FATAL("perfbench: cannot create farm queue under ", dir);
    for (const exp::FarmJob &j : jobs) {
        std::string err;
        if (!coord.enqueue(j, &err))
            ALEWIFE_FATAL("perfbench: cannot enqueue job ", j.id, ": ",
                          err);
    }

    const std::string cacheDir = dir + "/cache";
    auto work = [&](const std::string &id) {
        exp::WorkQueue q(dir, id, tuning);
        exp::ResultCache cache(cacheDir);
        for (;;) {
            const std::optional<exp::FarmJob> job =
                layerCall(env, "exp.queue.claim", nextReq(env),
                          [&] { return q.claim(exp::farmNowMs()); });
            if (!job) {
                if (q.counts().drained())
                    return;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(tuning.pollMs));
                continue;
            }
            const core::RunResult r =
                simulate(env, *byKey.at(job->appKey), job->spec);
            if (!r.verified) {
                q.fail(*job, "verification failed", exp::farmNowMs());
                continue;
            }
            layerCall(env, "exp.cache.store", lastReq(env), [&] {
                cache.store(exp::ResultCache::key(job->spec, job->appKey),
                            r);
            });
            layerCall(env, "exp.queue.complete", lastReq(env),
                      [&] { q.complete(*job, exp::farmNowMs()); });
        }
    };

    std::uint64_t reclaims = 0;
    if (env.trace) {
        work("worker0");
        reclaims += coord.reapExpired(exp::farmNowMs()).reclaims;
    } else {
        // The coordinator reaps at the library's default period, as
        // FarmCoordinator does, and stops as soon as both workers have
        // drained the queue.
        const std::int64_t reapMs = exp::FarmTuning{}.pollMs;
        std::atomic<int> running{kFarmWorkers};
        std::vector<std::thread> workers;
        for (int w = 0; w < kFarmWorkers; ++w)
            workers.emplace_back([&, w] {
                work("worker" + std::to_string(w));
                --running;
            });
        std::int64_t lastReap = exp::farmNowMs();
        while (running.load() > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            if (exp::farmNowMs() - lastReap >= reapMs) {
                reclaims += coord.reapExpired(exp::farmNowMs()).reclaims;
                lastReap = exp::farmNowMs();
            }
        }
        for (std::thread &t : workers)
            t.join();
    }

    exp::ResultCache cache(cacheDir);
    std::vector<core::RunResult> out;
    for (const exp::FarmJob &j : jobs) {
        const std::string key = exp::ResultCache::key(j.spec, j.appKey);
        auto hit = layerCall(env, "exp.cache.lookup", -1,
                             [&] { return cache.lookup(key); });
        out.push_back(hit ? std::move(*hit) : core::RunResult{});
    }
    stats["farm_reclaims"] += static_cast<double>(reclaims);
    if (env.trace) {
        env.trace->note("exp.farm.reclaims",
                        static_cast<double>(reclaims));
        for (int id : coord.idsIn("done"))
            if (auto e = coord.readEntry("done", id))
                env.trace->note("exp.farm.retries", e->attempts);
    }
    return out;
}

/** One shared-memory curve of the Figure-10 sweep: the first latency
 *  runs cold and is forked; every other latency warm-starts from the
 *  fork. Same order as the curve's specs in the plan. */
std::vector<core::RunResult>
warmCurve(Env &env, const Input &in, core::Mechanism m)
{
    exp::WarmStartSweep sweep;
    sweep.base.machine.idealNet = true;
    sweep.base.machine.idealNetLatencyCycles = kIdealLatency.front();
    sweep.base.mechanism = m;
    sweep.forkEvents = kForkEvents;
    for (std::size_t i = 1; i < kIdealLatency.size(); ++i) {
        MachineConfig v = sweep.base.machine;
        v.idealNetLatencyCycles = kIdealLatency[i];
        sweep.variants.push_back(std::move(v));
    }
    if (!env.trace)
        return exp::runWarmStartSweep(timedFactory(in.factory, env.log),
                                      sweep, /*verify_fatal=*/false);

    TraceSession &tr = *env.trace;
    std::vector<core::RunResult> out;
    TracedForkDriver fork(tr, sweep.forkEvents);
    layerCall(env, "exp.warm.base", nextReq(env), [&] {
        out.push_back(tr.point(in.factory, sweep.base, &fork));
    });
    if (!fork.snapshot())
        ALEWIFE_FATAL("perfbench: warm-start fork point lies past the "
                      "end of the base run");
    tr.note("ckpt.snapshot_bytes",
            static_cast<double>(fork.snapshot()->doc.dump().size()));
    tr.note("ckpt.snapshots", 1);
    for (const MachineConfig &v : sweep.variants) {
        TracedWarmDriver warm(tr, *fork.snapshot(), v);
        layerCall(env, "exp.warm.variant", nextReq(env), [&] {
            out.push_back(tr.point(in.factory, sweep.base, &warm));
        });
    }
    return out;
}

Round
modesRound(Env &env)
{
    static const core::SweepPlan p9 =
        plan(core::SweepKind::Clock, allMechs(), kClocksMhz);
    static const core::SweepPlan p10 =
        plan(core::SweepKind::IdealLatency, allMechs(), kIdealLatency);
    const double n9 =
        static_cast<double>(p9.specs.size() * env.inputs.size());
    const double n10 =
        static_cast<double>(p10.specs.size() * env.inputs.size());
    const std::string dir = env.workDir + "/modes";
    fs::remove_all(dir);

    Round rd;
    const std::int64_t t0 = nowNs();

    // Cold: simulate every Figure-9 point, storing into a fresh cache.
    std::vector<core::RunResult> cold;
    {
        exp::ResultCache cache(dir + "/cache");
        const std::int64_t t = nowNs();
        for (const Input &in : env.inputs)
            append(cold, runPlan(env, in, p9, &cache));
        rd.stats["cold_point_ms"] = msSince(t) / n9;
        if (env.plant != Plant::None)
            plantCacheFault(env.plant, cache, p9.specs.front(),
                            env.inputs.front().appKey);
    }
    verifyAll(env, cold, "cold");
    append(rd.results, cold);

    // Warm cache: a new cache over the same directory, as the next
    // invocation of a sweep would open it.
    {
        exp::ResultCache cache(dir + "/cache");
        const std::int64_t t = nowNs();
        std::vector<core::RunResult> hits;
        for (const Input &in : env.inputs)
            append(hits, runPlan(env, in, p9, &cache));
        rd.stats["cached_point_ms"] = msSince(t) / n9;
        env.checks->check(cache.misses() == 0,
                          "cached: " + std::to_string(cache.misses())
                              + " stored points missed the cache");
        compareAll(env, hits, cold, "cached");
        append(rd.results, hits);
    }

    {
        const std::int64_t t = nowNs();
        rd.stats["predict_mape_pct"] = predictMode(env, p9, cold);
        rd.stats["predict_point_ms"] = msSince(t) / n9;
    }

    {
        const std::int64_t t = nowNs();
        const auto farmed = farmMode(env, p9, dir + "/farm", rd.stats);
        rd.stats["farm_point_ms"] = msSince(t) / n9;
        compareAll(env, farmed, cold, "farm");
        append(rd.results, farmed);
    }

    // Figure 10 cold, then answered by warm-start forks.
    std::vector<core::RunResult> cold10;
    {
        const std::int64_t t = nowNs();
        for (const Input &in : env.inputs)
            append(cold10, runPlan(env, in, p10, nullptr));
        rd.stats["cold10_point_ms"] = msSince(t) / n10;
    }
    verifyAll(env, cold10, "fig10 cold");
    append(rd.results, cold10);
    {
        const std::int64_t t = nowNs();
        std::vector<core::RunResult> warm;
        for (const Input &in : env.inputs) {
            for (core::Mechanism m : p10.mechs) {
                if (core::isSharedMemory(m)) {
                    append(warm, warmCurve(env, in, m));
                } else {
                    core::RunSpec spec;
                    spec.mechanism = m;
                    warm.push_back(simulate(env, in, spec));
                }
            }
        }
        rd.stats["warm_point_ms"] = msSince(t) / n10;
        compareAll(env, warm, cold10, "warm start");
        append(rd.results, warm);
    }

    rd.wallS = msSince(t0) / 1e3;
    fs::remove_all(dir);
    return rd;
}

const Workload kWorkloads[] = {
    {"fig08_cold", paperInputs, fig08Round},
    {"graph_mp", graphInputs, graphRound},
    {"sweep_modes", modeInputs, modesRound},
};

} // namespace

void
Checks::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

bool
sameResult(const core::RunResult &a, const core::RunResult &b)
{
    if (a.runtimeCycles != b.runtimeCycles || a.checksum != b.checksum
        || a.verified != b.verified)
        return false;
    for (const CounterField &f : machineCounterFields())
        if (a.counters.*f.member != b.counters.*f.member)
            return false;
    return true;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace perfbench
