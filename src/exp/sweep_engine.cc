#include "exp/sweep_engine.hh"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "ckpt/driver.hh"
#include "exp/farm.hh"
#include "exp/json.hh"
#include "exp/result_cache.hh"
#include "sim/logging.hh"

namespace alewife::exp {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

SweepEngine::SweepEngine(EngineOptions opts) : opts_(std::move(opts))
{
    if (opts_.jobs < 1)
        opts_.jobs = 1;
}

std::vector<core::RunResult>
SweepEngine::run(const std::vector<Job> &jobs)
{
    const auto start = Clock::now();
    const int n = static_cast<int>(jobs.size());

    progress_ = Progress{};
    progress_.queued = n;

    std::vector<core::RunResult> results(jobs.size());

    // Results already in the cache never reach a worker; resolving
    // them up front keeps the pool busy only with real simulations.
    std::vector<int> todo;
    todo.reserve(jobs.size());
    for (int i = 0; i < n; ++i) {
        // Audited or observed batches always simulate: a cache hit
        // would skip the invariant checks / skip writing the
        // requested obs files. Results are still stored below.
        const std::string key =
            (opts_.cache && !opts_.audit && !opts_.obs.any())
                ? ResultCache::key(jobs[i].spec, jobs[i].appKey)
                : std::string();
        if (!key.empty()) {
            if (auto hit = opts_.cache->lookup(key)) {
                results[i] = std::move(*hit);
                ++progress_.cacheHits;
                ++progress_.done;
                continue;
            }
        }
        todo.push_back(i);
    }

    // Distributed path: hand the uncached remainder to a farm
    // campaign when one is configured and the batch is serializable.
    if (!opts_.farmDir.empty() && !todo.empty()) {
        // Farm workers run obs-detached: they execute in separate
        // processes and return only RunResults, so the per-run trace/
        // metrics/flight files the caller asked for would silently
        // never be written. Reject the combination outright rather
        // than degrade it (docs/API.md, "Farm runs are obs-detached").
        if (opts_.obs.any())
            ALEWIFE_FATAL(
                "sweep: a farm campaign (farm-dir) cannot be combined "
                "with observability sinks (trace-out / metrics-out / "
                "obs-interval / flight-out): farm workers run "
                "obs-detached and would not write the per-run files. "
                "Drop the obs flags, or drop farm-dir to run "
                "in-process.");
        std::string why;
        if (opts_.audit)
            why = "audited batches must simulate in-process";
        else if (opts_.workload.empty())
            why = "no serializable workload identity "
                  "(EngineOptions::workload)";
        else {
            for (int i : todo) {
                if (ResultCache::key(jobs[i].spec, jobs[i].appKey)
                        .empty()) {
                    why = "job " + std::to_string(i)
                          + " is uncacheable (empty app key or "
                            "perturbed spec) so workers cannot "
                            "return its result";
                    break;
                }
            }
        }
        if (!why.empty()) {
            ALEWIFE_WARN("sweep: farm-dir ignored: ", why,
                         "; running in-process");
        } else {
            FarmOptions fo;
            fo.dir = opts_.farmDir;
            if (opts_.cache && !opts_.cache->dir().empty())
                fo.cacheDir = opts_.cache->dir();
            fo.ckptDir = opts_.ckptDir; // "" -> farm default
            fo.ckptIntervalCycles = opts_.ckptIntervalCycles;
            fo.tuning = opts_.farm;
            fo.workers = opts_.jobs;
            FarmCoordinator coord(std::move(fo));

            std::vector<FarmJob> farmJobs;
            farmJobs.reserve(todo.size());
            for (int i : todo) {
                FarmJob fj;
                fj.id = i; // submission index: stable across restarts
                fj.appKey = jobs[i].appKey;
                fj.workload = opts_.workload;
                fj.spec = jobs[i].spec;
                farmJobs.push_back(std::move(fj));
            }
            const std::vector<core::RunResult> farmed =
                coord.runCampaign(farmJobs);
            for (std::size_t k = 0; k < todo.size(); ++k) {
                results[todo[k]] = farmed[k];
                ++progress_.done;
            }
            // Refill the in-memory cache so later batches of this
            // process hit without re-reading the farm's disk store.
            if (opts_.cache) {
                for (std::size_t k = 0; k < todo.size(); ++k) {
                    if (farmed[k].verified)
                        opts_.cache->store(
                            ResultCache::key(jobs[todo[k]].spec,
                                             jobs[todo[k]].appKey),
                            farmed[k]);
                }
            }
            if (opts_.farmReport)
                *opts_.farmReport = coord.report();
            for (const QuarantinedJob &q :
                 coord.report().quarantined) {
                ALEWIFE_WARN("sweep: farm quarantined job #", q.id,
                             " (", q.appKey, ", ", q.mechanism,
                             ") after ", q.attempts,
                             " attempts: ", q.error);
            }
            progress_.elapsedSec = secondsSince(start);
            if (opts_.onProgress)
                opts_.onProgress(progress_);
            return results;
        }
    }

    std::mutex mu; // guards progress_ and the hook
    auto finishJob = [&](std::uint64_t simEvents) {
        std::lock_guard<std::mutex> lock(mu);
        --progress_.running;
        ++progress_.done;
        progress_.simEvents += simEvents;
        progress_.elapsedSec = secondsSince(start);
        if (opts_.onProgress)
            opts_.onProgress(progress_);
    };

    auto runOne = [&](int i) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++progress_.running;
        }
        const Job &job = jobs[i];
        core::RunSpec spec = job.spec;
        spec.audit = spec.audit || opts_.audit;
        if (opts_.obs.any()) {
            // Per-run output paths: one sink per simulation thread,
            // never a shared file between parallel workers.
            const std::string tag = "run" + std::to_string(i);
            spec.obs = opts_.obs;
            if (!spec.obs.traceOut.empty())
                spec.obs.traceOut =
                    obs::withPathTag(spec.obs.traceOut, tag);
            if (!spec.obs.metricsOut.empty())
                spec.obs.metricsOut =
                    obs::withPathTag(spec.obs.metricsOut, tag);
            if (!spec.obs.flightOut.empty())
                spec.obs.flightOut =
                    obs::withPathTag(spec.obs.flightOut, tag);
        }
        if (!opts_.ckptDir.empty()) {
            // Stable per-job snapshot path (jobSnapshotFile: batch
            // position + workload + spec identity), shared with farm
            // workers, so a restarted process — local or remote —
            // finds the same file for the same job and never another
            // job's.
            ckpt::CheckpointDriver driver(
                {opts_.ckptDir + "/"
                     + jobSnapshotFile(i, job.appKey, job.spec),
                 opts_.ckptIntervalCycles, /*resume=*/true,
                 /*deleteOnSuccess=*/true});
            results[i] = core::runApp(job.app, spec, opts_.verifyFatal,
                                      nullptr, &driver);
        } else {
            results[i] = core::runApp(job.app, spec, opts_.verifyFatal);
        }
        if (opts_.cache) {
            const std::string key =
                ResultCache::key(job.spec, job.appKey);
            if (!key.empty())
                opts_.cache->store(key, results[i]);
        }
        finishJob(results[i].simEvents);
    };

    const int workers =
        std::min<int>(opts_.jobs, static_cast<int>(todo.size()));
    if (workers <= 1) {
        for (int i : todo)
            runOne(i);
    } else {
        // Index dispatch via one shared atomic: workers pull the next
        // unstarted job, results land in their submission slot, so
        // completion order never leaks into the output.
        std::atomic<std::size_t> next{0};
        auto worker = [&]() {
            for (;;) {
                const std::size_t k = next.fetch_add(1);
                if (k >= todo.size())
                    return;
                runOne(todo[k]);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    progress_.elapsedSec = secondsSince(start);
    if (opts_.onProgress && todo.empty())
        opts_.onProgress(progress_);

    // Fold the per-run metrics documents into one sweep-level file at
    // the configured path, in submission order.
    if (opts_.obs.any() && !opts_.obs.metricsOut.empty()) {
        Json merged = Json::object();
        merged.set("schema", "alewife-metrics-sweep");
        merged.set("version", 1);
        Json runs = Json::array();
        for (int i = 0; i < n; ++i) {
            const std::string path = obs::withPathTag(
                opts_.obs.metricsOut, "run" + std::to_string(i));
            std::ifstream in(path);
            if (!in)
                continue;
            std::ostringstream ss;
            ss << in.rdbuf();
            std::string err;
            Json doc = Json::parse(ss.str(), &err);
            if (doc.isNull())
                continue;
            Json r = Json::object();
            r.set("job", i);
            r.set("app", results[i].app);
            r.set("mechanism",
                  core::mechanismShortName(results[i].mechanism));
            r.set("file", path);
            r.set("metrics", std::move(doc));
            runs.push(std::move(r));
        }
        merged.set("runs", std::move(runs));
        std::ofstream os(opts_.obs.metricsOut);
        if (!os)
            ALEWIFE_FATAL("metrics-out: cannot open ",
                          opts_.obs.metricsOut);
        os << merged.dump(1) << "\n";
    }
    return results;
}

} // namespace alewife::exp
