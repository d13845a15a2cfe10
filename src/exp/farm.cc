#include "exp/farm.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_set>

#include "apps/em3d.hh"
#include "apps/graph/catalog.hh"
#include "apps/iccg.hh"
#include "apps/moldyn.hh"
#include "apps/stream.hh"
#include "apps/unstruc.hh"
#include "ckpt/driver.hh"
#include "exp/result_cache.hh"
#include "sim/logging.hh"

namespace alewife::exp {

namespace fs = std::filesystem;

core::AppFactory
makeWorkloadFactory(const FarmWorkload &w, std::string *err)
{
    auto fail = [&](const std::string &why) -> core::AppFactory {
        if (err)
            *err = why;
        return {};
    };
    const double s = w.scale;
    if (!(s > 0.0))
        return fail("workload scale must be positive, got "
                    + std::to_string(s));
    // Parameterization must byte-match sweep_cli's makeFactory: the
    // cache entries a farm worker writes are the same entries a local
    // `sweep_cli --app X --scale s` reads.
    if (w.app == "em3d") {
        apps::Em3d::Params p;
        p.graph.nodesPerSide = static_cast<int>(1024 * s);
        p.graph.degree = 8;
        p.iters = 2;
        return apps::Em3d::factory(p);
    }
    if (w.app == "unstruc") {
        apps::Unstruc::Params p;
        p.mesh.nodes = static_cast<int>(1200 * s);
        p.iters = 2;
        return apps::Unstruc::factory(p);
    }
    if (w.app == "iccg") {
        apps::Iccg::Params p;
        p.matrix.rows = static_cast<int>(1200 * s);
        return apps::Iccg::factory(p);
    }
    if (w.app == "moldyn") {
        apps::Moldyn::Params p;
        p.box.molecules = static_cast<int>(768 * s);
        p.iters = 2;
        return apps::Moldyn::factory(p);
    }
    if (w.app == "stream") {
        apps::Stream::Params p;
        p.valuesPerIter = static_cast<int>(64 * s);
        p.iters = 4;
        return apps::Stream::factory(p);
    }
    if (apps::graph::findApp(w.app)) {
        // graphFamilyFromName() is fatal on unknown names; a bad name
        // in a job file must fail that job, not the worker process.
        bool known = false;
        for (const char *f : {"uniform", "rmat", "grid", "grid2d"})
            known |= w.graph == f;
        if (!known)
            return fail("unknown graph family '" + w.graph
                        + "' (valid: uniform, rmat, grid)");
        apps::graph::GraphAppParams p;
        p.graph.family = workload::graphFamilyFromName(w.graph);
        p.graph.vertices = static_cast<int>(1024 * s);
        p.graph.avgDegree = 8;
        p.graph.nprocs = 32;
        p.iters = 3;
        return apps::graph::makeApp(w.app, p);
    }
    return fail("unknown app '" + w.app
                + "' (valid: em3d, unstruc, iccg, moldyn, stream, "
                  "bfs, pagerank, pagerank-push, sssp)");
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

namespace {

constexpr const char *kFarmManifestSchema = "alewife-farm-manifest";

std::string
manifestPath(const std::string &dir)
{
    return dir + "/farm.json";
}

std::string
statusPath(const std::string &dir)
{
    return dir + "/status.json";
}

/** Sleep ~@p ms in small slices, bailing early when @p stop turns. */
void
sleepInterruptible(std::int64_t ms, const std::atomic<bool> &stop)
{
    const std::int64_t sliceMs = 20;
    for (std::int64_t waited = 0; waited < ms && !stop.load();
         waited += sliceMs)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(sliceMs, ms - waited)));
}

} // namespace

bool
writeFarmManifest(const std::string &dir, const FarmManifest &m,
                  std::string *err)
{
    Json t = Json::object();
    t.set("leaseTtlMs", static_cast<double>(m.tuning.leaseTtlMs));
    t.set("heartbeatMs", static_cast<double>(m.tuning.heartbeatMs));
    t.set("pollMs", static_cast<double>(m.tuning.pollMs));
    t.set("backoffBaseMs", static_cast<double>(m.tuning.backoffBaseMs));
    t.set("retryBudget", m.tuning.retryBudget);

    Json j = Json::object();
    j.set("schema", kFarmManifestSchema);
    j.set("version", kFarmSchemaVersion);
    j.set("cacheDir", m.cacheDir);
    j.set("ckptDir", m.ckptDir);
    j.set("ckptIntervalCycles", m.ckptIntervalCycles);
    j.set("tuning", std::move(t));
    return writeFileAtomic(manifestPath(dir), j.dump(1) + "\n", err);
}

std::optional<FarmManifest>
readFarmManifest(const std::string &dir, std::string *err)
{
    auto fail = [&](const std::string &why)
        -> std::optional<FarmManifest> {
        if (err)
            *err = why;
        return std::nullopt;
    };
    auto j = readJsonFile(manifestPath(dir));
    if (!j)
        return fail("no readable farm manifest at "
                    + manifestPath(dir));
    const Json *schema = j->find("schema");
    const Json *version = j->find("version");
    if (!schema || !schema->isString()
        || schema->asString() != kFarmManifestSchema)
        return fail("farm manifest: wrong schema tag");
    if (!version || !version->isNumber()
        || static_cast<int>(version->asDouble()) != kFarmSchemaVersion)
        return fail("farm manifest: unsupported version");

    FarmManifest m;
    auto str = [&](const char *k, std::string &out) {
        if (const Json *v = j->find(k); v && v->isString())
            out = v->asString();
    };
    str("cacheDir", m.cacheDir);
    str("ckptDir", m.ckptDir);
    if (const Json *v = j->find("ckptIntervalCycles");
        v && v->isNumber())
        m.ckptIntervalCycles = v->asDouble();
    if (const Json *t = j->find("tuning"); t && t->isObject()) {
        auto i64 = [&](const char *k, std::int64_t &out) {
            if (const Json *v = t->find(k); v && v->isNumber())
                out = static_cast<std::int64_t>(v->asDouble());
        };
        i64("leaseTtlMs", m.tuning.leaseTtlMs);
        i64("heartbeatMs", m.tuning.heartbeatMs);
        i64("pollMs", m.tuning.pollMs);
        i64("backoffBaseMs", m.tuning.backoffBaseMs);
        if (const Json *v = t->find("retryBudget");
            v && v->isNumber())
            m.tuning.retryBudget = static_cast<int>(v->asDouble());
    }
    return m;
}

// ---------------------------------------------------------------------
// FarmWorker
// ---------------------------------------------------------------------

std::optional<FarmWorker::Options>
FarmWorker::optionsFromManifest(const std::string &farmDir,
                                std::string *err)
{
    auto m = readFarmManifest(farmDir, err);
    if (!m)
        return std::nullopt;
    Options o;
    o.farmDir = farmDir;
    o.cacheDir = m->cacheDir;
    o.ckptDir = m->ckptDir;
    o.ckptIntervalCycles = m->ckptIntervalCycles;
    o.tuning = m->tuning;
    o.tuning.fault = farmFaultFromEnv();
    return o;
}

FarmWorker::FarmWorker(Options o) : opts_(std::move(o))
{
    if (opts_.workerId.empty())
        opts_.workerId = WorkQueue::defaultWorkerId();
}

int
FarmWorker::runLoop()
{
    WorkQueue q(opts_.farmDir, opts_.workerId, opts_.tuning);
    ResultCache cache(opts_.cacheDir);
    int completed = 0;
    while (!stop_.load()) {
        if (!q.ready()) {
            // Queue directory gone (NFS blip, rm -rf): the current job
            // was already drained — its result is in the cache — so
            // exit cleanly instead of crash-looping on ENOENT.
            degraded_ = true;
            ALEWIFE_WARN("farm worker ", opts_.workerId,
                         ": queue directory ", opts_.farmDir,
                         " is unreachable; draining and exiting");
            break;
        }
        std::optional<FarmJob> job = q.claim(farmNowMs());
        if (job) {
            runOne(q, cache, *job);
            ++completed;
            if (opts_.maxJobs >= 0 && completed >= opts_.maxJobs)
                break;
            continue;
        }
        const QueueCounts c = q.counts();
        if (c.drained())
            break;
        // Jobs exist but none is claimable right now (held by other
        // workers or backing off after a failure).
        sleepInterruptible(opts_.tuning.pollMs, stop_);
    }
    return completed;
}

void
FarmWorker::runOne(WorkQueue &q, ResultCache &cache, const FarmJob &job)
{
    const std::string key = ResultCache::key(job.spec, job.appKey);

    // A retried job whose previous holder stored the result but died
    // before completing finishes instantly off the shared cache.
    if (!key.empty() && cache.lookup(key)) {
        q.complete(job, farmNowMs());
        return;
    }

    std::string err;
    core::AppFactory factory = makeWorkloadFactory(job.workload, &err);
    if (!factory) {
        q.fail(job, err, farmNowMs());
        return;
    }

    // Heartbeat on a side thread so lease renewal never waits on the
    // simulation; small sleep slices keep teardown prompt.
    std::atomic<bool> running{true};
    std::thread hb([&] {
        std::int64_t last = farmNowMs();
        while (running.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            const std::int64_t now = farmNowMs();
            if (now - last >= q.tuning().heartbeatMs) {
                q.heartbeat(job.id, now);
                last = now;
            }
        }
    });

    core::RunResult result;
    if (!opts_.ckptDir.empty()) {
        // Shared snapshot path (jobSnapshotFile): a job reclaimed from
        // a dead worker warm-resumes that worker's partial run here.
        ckpt::CheckpointDriver driver(
            {opts_.ckptDir + "/"
                 + jobSnapshotFile(job.id, job.appKey, job.spec),
             opts_.ckptIntervalCycles, /*resume=*/true,
             /*deleteOnSuccess=*/true});
        result = core::runApp(factory, job.spec, /*verify_fatal=*/false,
                              nullptr, &driver);
    } else {
        result = core::runApp(factory, job.spec, /*verify_fatal=*/false);
    }
    running.store(false);
    hb.join();

    if (!result.verified) {
        q.fail(job,
               "verification failed (checksum "
                   + std::to_string(result.checksum) + " vs reference "
                   + std::to_string(result.reference) + ")",
               farmNowMs());
        return;
    }

    if (!key.empty())
        cache.store(key, result);
    if (faultArmed_ && opts_.tuning.fault == FarmFault::CorruptResult) {
        faultArmed_ = false;
        const std::string path = cache.entryPath(key);
        std::error_code ec;
        const auto size = fs::file_size(path, ec);
        if (!ec)
            fs::resize_file(path, size / 2, ec); // torn mid-write
        q.logEvent("fault", job.id, farmNowMs(),
                   "corrupt-result: truncated " + path);
    }
    q.complete(job, farmNowMs());
}

// ---------------------------------------------------------------------
// FarmCoordinator
// ---------------------------------------------------------------------

FarmCoordinator::FarmCoordinator(FarmOptions opts)
    : opts_(std::move(opts)),
      queue_(opts_.dir, "coord:" + WorkQueue::defaultWorkerId(),
             opts_.tuning)
{
    if (opts_.cacheDir.empty())
        opts_.cacheDir = opts_.dir + "/cache";
    if (opts_.ckptDir.empty())
        opts_.ckptDir = opts_.dir + "/ckpt";
    if (opts_.workers < 0)
        opts_.workers = 0;
}

void
FarmCoordinator::seedCountersFromStatus()
{
    // A restarted coordinator resumes a half-finished campaign; carry
    // the monotonic counters of the previous incarnation forward so
    // the status JSON never goes backwards.
    auto j = readJsonFile(statusPath(opts_.dir));
    if (!j || !j->isObject())
        return;
    const Json *cnt = j->find("counters");
    if (!cnt || !cnt->isObject())
        return;
    auto get = [&](const char *k, std::uint64_t &out) {
        if (const Json *v = cnt->find(k); v && v->isNumber())
            out = static_cast<std::uint64_t>(v->asDouble());
    };
    get("leaseExpiries", report_.leaseExpiries);
    get("reclaims", report_.reclaims);
    get("recomputes", report_.recomputes);
    get("rescued", report_.rescued);
}

bool
FarmCoordinator::materialize(const std::vector<FarmJob> &jobs)
{
    jobs_ = jobs;
    if (!queue_.initDirs()) {
        ALEWIFE_WARN("farm: cannot create queue directories under ",
                     opts_.dir);
        return false;
    }
    FarmManifest m;
    m.cacheDir = opts_.cacheDir;
    m.ckptDir = opts_.ckptDir;
    m.ckptIntervalCycles = opts_.ckptIntervalCycles;
    m.tuning = opts_.tuning;
    std::string err;
    if (!writeFarmManifest(opts_.dir, m, &err)) {
        ALEWIFE_WARN("farm: cannot write manifest: ", err);
        return false;
    }
    seedCountersFromStatus();

    // Snapshots whose job is not in this campaign belong to a dead
    // one; reclaim the disk before workers start writing new ones.
    std::vector<std::string> keep;
    keep.reserve(jobs_.size());
    for (const FarmJob &job : jobs_)
        keep.push_back(jobSnapshotFile(job.id, job.appKey, job.spec));
    report_.orphanSnapshotsDeleted +=
        ckpt::cleanOrphanSnapshots(opts_.ckptDir, keep);

    // Re-entrancy: jobs already present in some state directory are a
    // previous incarnation's progress, not an error — skip them.
    std::unordered_set<int> present;
    for (const char *state : {"pending", "leased", "done", "poison"})
        for (int id : queue_.idsIn(state))
            present.insert(id);

    int skipped = 0;
    for (const FarmJob &job : jobs_) {
        if (present.count(job.id)) {
            ++skipped;
            continue;
        }
        if (!queue_.enqueue(job, &err)) {
            ALEWIFE_WARN("farm: cannot enqueue job #", job.id, ": ",
                         err);
            return false;
        }
    }
    if (skipped > 0)
        ALEWIFE_WARN("farm: resuming campaign in ", opts_.dir, ": ",
                     skipped, " of ", jobs_.size(),
                     " jobs already materialized");
    report_.farmed = true;
    writeStatus();
    return true;
}

void
FarmCoordinator::runUntilDrained()
{
    const int total = static_cast<int>(jobs_.size());

    std::vector<std::unique_ptr<FarmWorker>> workers;
    std::vector<std::thread> threads;
    for (int w = 0; w < opts_.workers; ++w) {
        FarmWorker::Options wo;
        wo.farmDir = opts_.dir;
        wo.workerId = queue_.workerId() + ":w" + std::to_string(w);
        wo.cacheDir = opts_.cacheDir;
        wo.ckptDir = opts_.ckptDir;
        wo.ckptIntervalCycles = opts_.ckptIntervalCycles;
        wo.tuning = opts_.tuning;
        // In-process workers share our address space: a fault like
        // kill-after-claim would take the coordinator down with it.
        // Faults are for external worker processes (farm_cli worker)
        // and directly constructed FarmWorker instances.
        wo.tuning.fault = FarmFault::None;
        workers.push_back(std::make_unique<FarmWorker>(wo));
        threads.emplace_back(
            [&worker = *workers.back()] { worker.runLoop(); });
    }

    std::atomic<bool> never{false};
    for (;;) {
        const ReapStats stats = queue_.reapExpired(farmNowMs());
        report_.leaseExpiries += stats.leaseExpiries;
        report_.reclaims += stats.reclaims;
        writeStatus();
        const QueueCounts c = queue_.counts();
        if (opts_.onStatus)
            opts_.onStatus(c);
        if (c.done + c.poisoned >= total)
            break;
        if (!queue_.ready()) {
            ALEWIFE_WARN("farm: queue directory ", opts_.dir,
                         " is unreachable; abandoning the drain loop "
                         "(collect() will recompute what's missing)");
            break;
        }
        sleepInterruptible(opts_.tuning.pollMs, never);
    }

    for (auto &worker : workers)
        worker->requestStop();
    for (auto &t : threads)
        t.join();
    writeStatus();
}

std::vector<core::RunResult>
FarmCoordinator::collect()
{
    ResultCache cache(opts_.cacheDir);
    std::vector<core::RunResult> results;
    results.reserve(jobs_.size());
    for (const FarmJob &job : jobs_) {
        const std::string key = ResultCache::key(job.spec, job.appKey);
        std::optional<core::RunResult> hit = cache.lookup(key);
        const std::optional<FarmJob> poisoned =
            queue_.readEntry("poison", job.id);

        if (hit) {
            if (poisoned) {
                // A straggler delivered the result after the job was
                // quarantined — rescue it rather than dropping work
                // that actually finished.
                ++report_.rescued;
                queue_.logEvent("rescue", job.id, farmNowMs());
            }
            results.push_back(std::move(*hit));
            continue;
        }
        if (poisoned) {
            report_.quarantined.push_back(
                {job.id, job.appKey,
                 core::mechanismShortName(job.spec.mechanism),
                 poisoned->attempts, poisoned->lastError});
            core::RunResult placeholder;
            placeholder.app = job.workload.app;
            placeholder.mechanism = job.spec.mechanism;
            placeholder.verified = false;
            results.push_back(std::move(placeholder));
            continue;
        }

        // Done (or never-drained) without a usable cache entry — a
        // corrupt entry was just quarantined to *.bad, or the cache
        // dir was lost. The run is deterministic: recompute locally.
        std::string err;
        core::AppFactory factory =
            makeWorkloadFactory(job.workload, &err);
        if (!factory) {
            report_.quarantined.push_back(
                {job.id, job.appKey,
                 core::mechanismShortName(job.spec.mechanism),
                 job.attempts, err});
            core::RunResult placeholder;
            placeholder.app = job.workload.app;
            placeholder.mechanism = job.spec.mechanism;
            placeholder.verified = false;
            results.push_back(std::move(placeholder));
            continue;
        }
        ALEWIFE_WARN("farm: job #", job.id,
                     " has no usable cache entry; recomputing "
                     "locally");
        core::RunResult r =
            core::runApp(factory, job.spec, /*verify_fatal=*/false);
        if (!key.empty())
            cache.store(key, r);
        ++report_.recomputes;
        results.push_back(std::move(r));
    }
    writeStatus();
    return results;
}

std::vector<core::RunResult>
FarmCoordinator::runCampaign(const std::vector<FarmJob> &jobs)
{
    if (!materialize(jobs)) {
        // The farm directory is unusable; the batch still runs — just
        // not distributed. collect() recomputes everything locally.
        ALEWIFE_WARN("farm: cannot materialize the campaign under ",
                     opts_.dir, "; running the batch locally instead");
        report_.farmed = false;
        return collect();
    }
    runUntilDrained();
    return collect();
}

Json
FarmCoordinator::statusJson() const
{
    const QueueCounts c = queue_.counts();

    Json counts = Json::object();
    counts.set("pending", c.pending);
    counts.set("leased", c.leased);
    counts.set("done", c.done);
    counts.set("poisoned", c.poisoned);

    Json counters = Json::object();
    counters.set("claims", queue_.countEvents("claim"));
    counters.set("completions", queue_.countEvents("complete"));
    counters.set("lateCompletions",
                 queue_.countEvents("late-complete"));
    counters.set("requeues", queue_.countEvents("requeue"));
    counters.set("leaseExpiries", report_.leaseExpiries);
    counters.set("reclaims", report_.reclaims);
    counters.set("quarantines", c.poisoned);
    counters.set("recomputes", report_.recomputes);
    counters.set("rescued", report_.rescued);
    counters.set("orphanSnapshotsDeleted",
                 report_.orphanSnapshotsDeleted);

    Json quarantined = Json::array();
    for (int id : queue_.idsIn("poison")) {
        Json q = Json::object();
        q.set("id", id);
        if (auto job = queue_.readEntry("poison", id)) {
            q.set("appKey", job->appKey);
            q.set("mechanism",
                  core::mechanismShortName(job->spec.mechanism));
            q.set("attempts", job->attempts);
            q.set("lastError", job->lastError);
        } else {
            q.set("lastError", "unreadable queue entry");
        }
        quarantined.push(std::move(q));
    }

    Json j = Json::object();
    j.set("schema", kFarmStatusSchema);
    j.set("version", kFarmSchemaVersion);
    j.set("dir", opts_.dir);
    j.set("jobsTotal", static_cast<int>(jobs_.size()));
    j.set("counts", std::move(counts));
    j.set("counters", std::move(counters));
    j.set("quarantined", std::move(quarantined));
    return j;
}

void
FarmCoordinator::writeStatus()
{
    writeFileAtomic(statusPath(opts_.dir),
                    statusJson().dump(1) + "\n");
}

Json
readFarmStatus(const std::string &dir)
{
    if (!readFarmManifest(dir))
        return Json();
    auto j = readJsonFile(statusPath(dir));
    if (!j || !j->isObject()) {
        j = Json::object();
        j->set("schema", kFarmStatusSchema);
        j->set("version", kFarmSchemaVersion);
        j->set("dir", dir);
    }
    // The coordinator's document is a point-in-time write; refresh the
    // census so `farm_cli status` is live even between its passes.
    WorkQueue q(dir, "status", FarmTuning{});
    const QueueCounts c = q.counts();
    Json counts = Json::object();
    counts.set("pending", c.pending);
    counts.set("leased", c.leased);
    counts.set("done", c.done);
    counts.set("poisoned", c.poisoned);
    j->set("counts", std::move(counts));
    return *j;
}

} // namespace alewife::exp
