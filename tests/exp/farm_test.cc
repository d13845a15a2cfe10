/**
 * @file
 * Tests for the distributed sweep farm: the work-queue protocol
 * (claim/heartbeat/complete/fail/reap), every FARM_FAULT recovery
 * path, and the coordinator's materialize/drain/collect cycle —
 * including the bit-identity guarantee against a local run.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "exp/farm.hh"
#include "exp/queue.hh"
#include "exp/result_cache.hh"
#include "exp/serialize.hh"
#include "exp/sweep_engine.hh"

namespace alewife::exp {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        static int n = 0;
        path = fs::temp_directory_path()
               / ("alewife-farm-test-" + std::to_string(::getpid())
                  + "-" + std::to_string(n++));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    std::string str() const { return path.string(); }
};

/** Millisecond knobs scaled down so protocol tests run in ~no time. */
FarmTuning
fastTuning()
{
    FarmTuning t;
    t.leaseTtlMs = 200;
    t.heartbeatMs = 40;
    t.pollMs = 10;
    t.backoffBaseMs = 10;
    t.retryBudget = 2;
    return t;
}

/** The test workload: the smallest stream run (16 values, 4 iters). */
FarmWorkload
streamWorkload()
{
    FarmWorkload w;
    w.app = "stream";
    w.scale = 0.25;
    return w;
}

FarmJob
makeJob(int id, core::Mechanism mech,
        const FarmWorkload &w = streamWorkload())
{
    FarmJob job;
    job.id = id;
    job.workload = w;
    job.appKey = w.appKey();
    job.spec.mechanism = mech;
    return job;
}

core::RunResult
localRun(const FarmJob &job)
{
    auto factory = makeWorkloadFactory(job.workload);
    return core::runApp(factory, job.spec);
}

WorkQueue
makeQueue(const TempDir &tmp, const std::string &worker,
          FarmTuning tuning = fastTuning())
{
    WorkQueue q(tmp.str(), worker, tuning);
    EXPECT_TRUE(q.initDirs());
    return q;
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

TEST(FarmWorkload, AppKeyMatchesSweepCliFormat)
{
    EXPECT_EQ(streamWorkload().appKey(), "stream/scale=0.25");

    FarmWorkload g;
    g.app = "bfs";
    g.graph = "rmat";
    EXPECT_EQ(g.appKey(), "bfs/scale=1/graph=rmat");

    // Non-graph apps ignore the graph family, like sweep_cli does.
    FarmWorkload s = streamWorkload();
    s.graph = "rmat";
    EXPECT_EQ(s.appKey(), "stream/scale=0.25");

    EXPECT_EQ(FarmWorkload{}.appKey(), "");
}

TEST(FarmJobJson, RoundTripPreservesCacheKey)
{
    FarmJob job = makeJob(7, core::Mechanism::MpPolling);
    job.spec.machine.procMhz = 40.0;
    job.spec.machine.idealNet = true;
    job.spec.machine.idealNetLatencyCycles = 123.0;
    job.spec.machine.threeHopForwarding =
        !job.spec.machine.threeHopForwarding;
    job.spec.crossTraffic.bytesPerCycle = 4.5;
    job.spec.crossTraffic.messageBytes = 96;
    job.attempts = 2;
    job.notBeforeMs = 123456789;
    job.lastError = "lease expired";

    std::string err;
    auto back = farmJobFromJson(farmJobToJson(job), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->id, job.id);
    EXPECT_EQ(back->appKey, job.appKey);
    EXPECT_EQ(back->workload.app, job.workload.app);
    EXPECT_EQ(back->workload.scale, job.workload.scale);
    EXPECT_EQ(back->attempts, job.attempts);
    EXPECT_EQ(back->notBeforeMs, job.notBeforeMs);
    EXPECT_EQ(back->lastError, job.lastError);

    // The whole point of the round trip: the reconstructed spec maps
    // to the same cache entry, machine canonical key included.
    EXPECT_EQ(ResultCache::key(back->spec, back->appKey),
              ResultCache::key(job.spec, job.appKey));
    EXPECT_EQ(back->spec.machine.canonicalKey(),
              job.spec.machine.canonicalKey());
}

TEST(FarmJobJson, MalformedDocumentsAreRejectedNotFatal)
{
    std::string err;

    Json notOurs = farmJobToJson(makeJob(0, core::Mechanism::SharedMemory));
    notOurs.set("schema", "something-else");
    EXPECT_FALSE(farmJobFromJson(notOurs, &err).has_value());
    EXPECT_NE(err.find("schema"), std::string::npos);

    Json badMech = farmJobToJson(makeJob(0, core::Mechanism::SharedMemory));
    Json badSpec = badMech.at("spec");
    badSpec.set("mechanism", "WARP-DRIVE");
    badMech.set("spec", std::move(badSpec));
    EXPECT_FALSE(farmJobFromJson(badMech, &err).has_value());
    EXPECT_NE(err.find("WARP-DRIVE"), std::string::npos);

    Json noWorkload = Json::object();
    noWorkload.set("schema", kFarmJobSchema);
    noWorkload.set("version", kFarmSchemaVersion);
    noWorkload.set("id", 1);
    noWorkload.set("appKey", "x");
    EXPECT_FALSE(farmJobFromJson(noWorkload, &err).has_value());

    Json typed = farmJobToJson(makeJob(0, core::Mechanism::SharedMemory));
    typed.set("id", "one");
    EXPECT_FALSE(farmJobFromJson(typed, &err).has_value());
}

TEST(FarmJobJson, SnapshotFileNameIsStableAndSensitive)
{
    const FarmJob a = makeJob(3, core::Mechanism::SharedMemory);
    const std::string name = jobSnapshotFile(a.id, a.appKey, a.spec);
    EXPECT_EQ(name, jobSnapshotFile(a.id, a.appKey, a.spec));
    EXPECT_NE(name.find("-latest.ckpt.json"), std::string::npos);

    EXPECT_NE(name, jobSnapshotFile(4, a.appKey, a.spec));
    EXPECT_NE(name, jobSnapshotFile(a.id, "other/scale=1", a.spec));
    core::RunSpec other = a.spec;
    other.mechanism = core::Mechanism::MpPolling;
    EXPECT_NE(name, jobSnapshotFile(a.id, a.appKey, other));
}

// ---------------------------------------------------------------------
// Queue protocol
// ---------------------------------------------------------------------

TEST(WorkQueueTest, ClaimTakesLowestIdAndHoldsALease)
{
    TempDir tmp;
    WorkQueue q = makeQueue(tmp, "w1");
    for (int id : {2, 0, 1})
        ASSERT_TRUE(q.enqueue(makeJob(id, core::Mechanism::SharedMemory)));
    EXPECT_EQ(q.counts().pending, 3);

    auto job = q.claim(1000);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->id, 0);
    EXPECT_EQ(q.counts().pending, 2);
    EXPECT_EQ(q.counts().leased, 1);
    EXPECT_TRUE(fs::exists(tmp.path / "leases" / "000000.json"));
    EXPECT_EQ(q.countEvents("claim"), 1u);

    EXPECT_TRUE(q.complete(*job, 1001));
    EXPECT_EQ(q.counts().done, 1);
    EXPECT_FALSE(fs::exists(tmp.path / "leases" / "000000.json"));
    EXPECT_EQ(q.completions(), 1u);
}

TEST(WorkQueueTest, TwoWorkersNeverClaimTheSameJob)
{
    TempDir tmp;
    WorkQueue a = makeQueue(tmp, "wa");
    WorkQueue b(tmp.str(), "wb", fastTuning());
    for (int id : {0, 1})
        ASSERT_TRUE(a.enqueue(makeJob(id, core::Mechanism::SharedMemory)));

    auto ja = a.claim(1000);
    auto jb = b.claim(1000);
    ASSERT_TRUE(ja.has_value());
    ASSERT_TRUE(jb.has_value());
    EXPECT_NE(ja->id, jb->id);
    EXPECT_FALSE(a.claim(1000).has_value());
}

TEST(WorkQueueTest, FailBacksOffExponentiallyThenPoisons)
{
    TempDir tmp;
    FarmTuning t = fastTuning();
    t.retryBudget = 1;
    t.backoffBaseMs = 100;
    WorkQueue q(tmp.str(), "w1", t);
    ASSERT_TRUE(q.initDirs());
    ASSERT_TRUE(q.enqueue(makeJob(0, core::Mechanism::SharedMemory)));

    auto job = q.claim(1000);
    ASSERT_TRUE(job.has_value());
    q.fail(*job, "boom", 1000);

    // Re-queued with attempts=1, not claimable until the backoff ends.
    auto entry = q.readEntry("pending", 0);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->attempts, 1);
    EXPECT_EQ(entry->notBeforeMs, 1100);
    EXPECT_EQ(entry->lastError, "boom");
    EXPECT_FALSE(q.claim(1050).has_value());

    auto retry = q.claim(1101);
    ASSERT_TRUE(retry.has_value());
    q.fail(*retry, "boom again", 1101);

    // Budget (1 retry) exhausted: quarantined with the last error.
    EXPECT_EQ(q.counts().poisoned, 1);
    EXPECT_EQ(q.counts().pending, 0);
    EXPECT_EQ(q.counts().leased, 0);
    auto poisoned = q.readEntry("poison", 0);
    ASSERT_TRUE(poisoned.has_value());
    EXPECT_EQ(poisoned->attempts, 2);
    EXPECT_EQ(poisoned->lastError, "boom again");
}

TEST(WorkQueueTest, ReapReclaimsStaleLeaseAndLateCompletionIsDropped)
{
    TempDir tmp;
    WorkQueue a = makeQueue(tmp, "wa"); // ttl 200ms
    ASSERT_TRUE(a.enqueue(makeJob(0, core::Mechanism::SharedMemory)));
    auto job = a.claim(1000);
    ASSERT_TRUE(job.has_value());

    // Heartbeats keep the lease alive past the TTL...
    a.heartbeat(0, 1150);
    EXPECT_EQ(a.reapExpired(1300).leaseExpiries, 0u);

    // ...but once they stop, the reaper re-queues the job.
    const ReapStats stats = a.reapExpired(1151 + 201);
    EXPECT_EQ(stats.leaseExpiries, 1u);
    EXPECT_EQ(stats.reclaims, 1u);
    EXPECT_EQ(stats.quarantines, 0u);
    auto entry = a.readEntry("pending", 0);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->attempts, 1);
    EXPECT_NE(entry->lastError.find("lease expired"),
              std::string::npos);

    // Another worker claims the reclaimed job; the original holder's
    // completion is now late and must not move the entry.
    WorkQueue b(tmp.str(), "wb", fastTuning());
    auto retry = b.claim(entry->notBeforeMs + 1);
    ASSERT_TRUE(retry.has_value());
    EXPECT_FALSE(a.complete(*job, 9999));
    EXPECT_EQ(a.lateCompletions(), 1u);
    EXPECT_EQ(a.counts().leased, 1);
    EXPECT_TRUE(b.complete(*retry, 9999));
    EXPECT_EQ(b.counts().done, 1);
}

TEST(WorkQueueTest, ReaperSparesAClaimInFlight)
{
    TempDir tmp;
    WorkQueue q = makeQueue(tmp, "w1"); // ttl 200ms
    ASSERT_TRUE(q.enqueue(makeJob(0, core::Mechanism::SharedMemory)));

    // A claim between its rename into leased/ and its lease write.
    fs::rename(tmp.path / "pending" / "000000.json",
               tmp.path / "leased" / "000000.json");

    EXPECT_EQ(q.reapExpired(1000).reclaims, 0u);
    EXPECT_EQ(q.counts().leased, 1);

    // Still lease-less a full TTL after the reaper first saw it.
    const ReapStats stats = q.reapExpired(1000 + 200 + 1);
    EXPECT_EQ(stats.reclaims, 1u);
    auto entry = q.readEntry("pending", 0);
    ASSERT_TRUE(entry.has_value());
    EXPECT_NE(entry->lastError.find("lease lost"), std::string::npos);
}

TEST(WorkQueueTest, UnreadableEntryIsQuarantinedByTheReaper)
{
    TempDir tmp;
    WorkQueue q = makeQueue(tmp, "w1");
    std::ofstream(tmp.path / "pending" / "000005.json") << "{ torn";

    const ReapStats stats = q.reapExpired(1000);
    EXPECT_EQ(stats.quarantines, 1u);
    EXPECT_EQ(q.counts().pending, 0);
    EXPECT_EQ(q.counts().poisoned, 1);
}

// ---------------------------------------------------------------------
// Fault injection: every FARM_FAULT recovery path
// ---------------------------------------------------------------------

TEST(FarmFaultTest, NamesRoundTrip)
{
    for (FarmFault f :
         {FarmFault::DropLease, FarmFault::StallHeartbeat,
          FarmFault::CorruptResult, FarmFault::KillAfterClaim})
        EXPECT_STRNE(farmFaultName(f), "");
    EXPECT_STREQ(farmFaultName(FarmFault::None), "");
}

TEST(FarmFaultTest, DropLeaseIsReclaimedAfterTtl)
{
    TempDir tmp;
    FarmTuning t = fastTuning();
    t.fault = FarmFault::DropLease;
    WorkQueue q(tmp.str(), "wf", t);
    ASSERT_TRUE(q.initDirs());
    ASSERT_TRUE(q.enqueue(makeJob(0, core::Mechanism::SharedMemory)));

    auto job = q.claim(1000);
    ASSERT_TRUE(job.has_value());
    EXPECT_FALSE(fs::exists(tmp.path / "leases" / "000000.json"));

    // A missing lease could be a claim in flight, so it gets the TTL
    // grace, timed from the first pass that saw it missing.
    EXPECT_EQ(q.reapExpired(1001).reclaims, 0u);
    const ReapStats stats = q.reapExpired(1001 + t.leaseTtlMs + 1);
    EXPECT_EQ(stats.leaseExpiries, 1u);
    EXPECT_EQ(stats.reclaims, 1u);
    auto entry = q.readEntry("pending", 0);
    ASSERT_TRUE(entry.has_value());
    EXPECT_NE(entry->lastError.find("lease lost"), std::string::npos);
}

TEST(FarmFaultTest, StallHeartbeatExpiresDespiteRenewalCalls)
{
    TempDir tmp;
    FarmTuning t = fastTuning();
    t.fault = FarmFault::StallHeartbeat;
    WorkQueue q(tmp.str(), "wf", t);
    ASSERT_TRUE(q.initDirs());
    ASSERT_TRUE(q.enqueue(makeJob(0, core::Mechanism::SharedMemory)));

    auto job = q.claim(1000);
    ASSERT_TRUE(job.has_value());
    q.heartbeat(0, 1150); // swallowed by the fault
    q.heartbeat(0, 1350); // swallowed by the fault

    // The lease still carries the claim-time heartbeat, so it expires.
    const ReapStats stats = q.reapExpired(1000 + 201);
    EXPECT_EQ(stats.leaseExpiries, 1u);
    EXPECT_EQ(stats.reclaims, 1u);
}

TEST(FarmFaultDeathTest, KillAfterClaimDiesWithLeaseHeld)
{
    TempDir tmp;
    {
        WorkQueue setup = makeQueue(tmp, "setup");
        ASSERT_TRUE(
            setup.enqueue(makeJob(0, core::Mechanism::SharedMemory)));
    }

    FarmTuning t = fastTuning();
    t.fault = FarmFault::KillAfterClaim;
    EXPECT_EXIT(
        {
            WorkQueue victim(tmp.str(), "victim", t);
            victim.claim(1000);
        },
        ::testing::ExitedWithCode(9), "");

    // The dead worker left the job stranded in leased/ with its lease
    // intact — exactly what a kill -9 leaves — and the reaper recovers
    // it once the TTL passes.
    WorkQueue coord(tmp.str(), "coord", fastTuning());
    EXPECT_EQ(coord.counts().leased, 1);
    const ReapStats stats = coord.reapExpired(farmNowMs() + 100'000);
    EXPECT_EQ(stats.leaseExpiries, 1u);
    EXPECT_EQ(stats.reclaims, 1u);
    EXPECT_EQ(coord.counts().pending, 1);
}

TEST(FarmFaultTest, CorruptResultIsQuarantinedAndRecomputed)
{
    TempDir tmp;
    FarmOptions fo;
    fo.dir = tmp.str();
    fo.tuning = fastTuning();
    fo.workers = 0; // the faulty external worker does all the work
    FarmCoordinator coord(fo);
    const std::vector<FarmJob> jobs = {
        makeJob(0, core::Mechanism::SharedMemory)};
    ASSERT_TRUE(coord.materialize(jobs));

    FarmWorker::Options wo;
    wo.farmDir = tmp.str();
    wo.workerId = "faulty";
    wo.cacheDir = coord.options().cacheDir;
    wo.ckptDir = coord.options().ckptDir;
    wo.tuning = fastTuning();
    wo.tuning.fault = FarmFault::CorruptResult;
    FarmWorker worker(wo);
    EXPECT_EQ(worker.runLoop(), 1);

    // The worker completed the job but tore its cache entry in half.
    coord.runUntilDrained(); // returns immediately: all jobs done
    const auto results = coord.collect();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(coord.report().recomputes, 1u);
    EXPECT_TRUE(coord.report().quarantined.empty());
    EXPECT_EQ(resultToJson(results[0]).dump(0),
              resultToJson(localRun(jobs[0])).dump(0));

    // The torn entry was quarantined to *.bad, not deleted silently.
    int bad = 0;
    for (const auto &e :
         fs::directory_iterator(coord.options().cacheDir))
        bad += e.path().extension() == ".bad";
    EXPECT_EQ(bad, 1);
}

// ---------------------------------------------------------------------
// Coordinator end to end
// ---------------------------------------------------------------------

TEST(FarmCoordinatorTest, CampaignIsBitIdenticalToLocalRuns)
{
    TempDir tmp;
    FarmOptions fo;
    fo.dir = tmp.str();
    fo.tuning = fastTuning();
    fo.workers = 2;
    FarmCoordinator coord(fo);

    std::vector<FarmJob> jobs;
    jobs.push_back(makeJob(0, core::Mechanism::SharedMemory));
    jobs.push_back(makeJob(1, core::Mechanism::MpInterrupt));
    jobs.push_back(makeJob(2, core::Mechanism::MpPolling));

    const auto farmed = coord.runCampaign(jobs);
    ASSERT_EQ(farmed.size(), jobs.size());
    EXPECT_TRUE(coord.report().farmed);
    EXPECT_TRUE(coord.report().quarantined.empty());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(resultToJson(farmed[i]).dump(0),
                  resultToJson(localRun(jobs[i])).dump(0))
            << "job " << i;

    // The status JSON accounts for every job.
    const Json status = readFarmStatus(tmp.str());
    ASSERT_TRUE(status.isObject());
    EXPECT_EQ(status.at("schema").asString(), kFarmStatusSchema);
    EXPECT_EQ(status.at("counts").at("done").asDouble(), 3.0);
    EXPECT_EQ(status.at("counts").at("pending").asDouble(), 0.0);
    EXPECT_GE(status.at("counters").at("claims").asDouble(), 3.0);
    EXPECT_GE(status.at("counters").at("completions").asDouble(), 3.0);
}

TEST(FarmCoordinatorTest, UnknownAppIsPoisonedAndReported)
{
    TempDir tmp;
    FarmOptions fo;
    fo.dir = tmp.str();
    fo.tuning = fastTuning();
    fo.tuning.retryBudget = 0; // poison on the first failure
    fo.workers = 1;
    FarmCoordinator coord(fo);

    FarmWorkload bad;
    bad.app = "does-not-exist";
    std::vector<FarmJob> jobs;
    jobs.push_back(makeJob(0, core::Mechanism::SharedMemory));
    jobs.push_back(makeJob(1, core::Mechanism::SharedMemory, bad));

    const auto results = coord.runCampaign(jobs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].verified);
    EXPECT_FALSE(results[1].verified); // placeholder

    ASSERT_EQ(coord.report().quarantined.size(), 1u);
    const QuarantinedJob &q = coord.report().quarantined[0];
    EXPECT_EQ(q.id, 1);
    EXPECT_NE(q.error.find("unknown app"), std::string::npos);

    const Json status = coord.statusJson();
    ASSERT_EQ(status.at("quarantined").size(), 1u);
    EXPECT_EQ(status.at("counters").at("quarantines").asDouble(), 1.0);
}

TEST(FarmCoordinatorTest, PoisonedJobWithCachedResultIsRescued)
{
    TempDir tmp;
    FarmOptions fo;
    fo.dir = tmp.str();
    fo.tuning = fastTuning();
    fo.tuning.retryBudget = 0;
    fo.workers = 0;
    FarmCoordinator coord(fo);
    const std::vector<FarmJob> jobs = {
        makeJob(0, core::Mechanism::SharedMemory)};
    ASSERT_TRUE(coord.materialize(jobs));

    // The job fails into poison/, but a straggler worker still lands
    // the (deterministic) result in the shared cache afterwards.
    WorkQueue w(tmp.str(), "w1", fo.tuning);
    auto job = w.claim(farmNowMs());
    ASSERT_TRUE(job.has_value());
    w.fail(*job, "simulated crash", farmNowMs());
    ASSERT_EQ(w.counts().poisoned, 1);

    ResultCache cache(coord.options().cacheDir);
    const core::RunResult straggler = localRun(jobs[0]);
    cache.store(ResultCache::key(jobs[0].spec, jobs[0].appKey),
                straggler);

    coord.runUntilDrained(); // done+poisoned covers the campaign
    const auto results = coord.collect();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(coord.report().quarantined.empty());
    EXPECT_EQ(coord.report().rescued, 1u);
    EXPECT_EQ(resultToJson(results[0]).dump(0),
              resultToJson(straggler).dump(0));
}

TEST(FarmCoordinatorTest, OrphanSnapshotsAreDeletedAtMaterialize)
{
    TempDir tmp;
    FarmOptions fo;
    fo.dir = tmp.str();
    fo.tuning = fastTuning();
    fo.workers = 1;
    FarmCoordinator coord(fo);
    const std::vector<FarmJob> jobs = {
        makeJob(0, core::Mechanism::SharedMemory)};

    const fs::path ckpt(coord.options().ckptDir);
    fs::create_directories(ckpt);
    const std::string live =
        jobSnapshotFile(jobs[0].id, jobs[0].appKey, jobs[0].spec);
    std::ofstream(ckpt / live) << "{}";
    std::ofstream(ckpt / "deadbeefdeadbeef-latest.ckpt.json") << "{}";
    std::ofstream(ckpt / "unrelated.txt") << "keep me";

    ASSERT_TRUE(coord.materialize(jobs));
    EXPECT_EQ(coord.report().orphanSnapshotsDeleted, 1u);
    EXPECT_TRUE(fs::exists(ckpt / live));
    EXPECT_FALSE(
        fs::exists(ckpt / "deadbeefdeadbeef-latest.ckpt.json"));
    EXPECT_TRUE(fs::exists(ckpt / "unrelated.txt"));
}

TEST(FarmCoordinatorTest, MaterializeFailureFallsBackToLocalRuns)
{
    // A farm directory that cannot be created (its parent is a regular
    // file — even root cannot mkdir under it) must not lose the batch.
    TempDir tmp;
    std::ofstream(tmp.path / "blocker") << "not a directory";
    FarmOptions fo;
    fo.dir = (tmp.path / "blocker" / "farm").string();
    fo.tuning = fastTuning();
    FarmCoordinator coord(fo);

    const std::vector<FarmJob> jobs = {
        makeJob(0, core::Mechanism::SharedMemory)};
    const auto results = coord.runCampaign(jobs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(coord.report().farmed);
    EXPECT_EQ(coord.report().recomputes, 1u);
    EXPECT_EQ(resultToJson(results[0]).dump(0),
              resultToJson(localRun(jobs[0])).dump(0));
}

TEST(FarmWorkerTest, VanishedQueueDirectoryDegradesCleanly)
{
    TempDir tmp;
    const fs::path farm = tmp.path / "farm";
    {
        WorkQueue q(farm.string(), "setup", fastTuning());
        ASSERT_TRUE(q.initDirs());
    }
    FarmWorker::Options wo;
    wo.farmDir = farm.string();
    wo.workerId = "lost";
    wo.cacheDir = (tmp.path / "cache").string();
    wo.tuning = fastTuning();
    FarmWorker worker(wo);

    fs::remove_all(farm); // the NFS blip / rm -rf moment
    EXPECT_EQ(worker.runLoop(), 0);
    EXPECT_TRUE(worker.degraded());
}

TEST(FarmWorkerTest, RestartedCoordinatorSkipsMaterializedJobs)
{
    TempDir tmp;
    FarmOptions fo;
    fo.dir = tmp.str();
    fo.tuning = fastTuning();
    fo.workers = 1;
    std::vector<FarmJob> jobs;
    jobs.push_back(makeJob(0, core::Mechanism::SharedMemory));
    jobs.push_back(makeJob(1, core::Mechanism::MpPolling));

    {
        FarmCoordinator first(fo);
        const auto results = first.runCampaign(jobs);
        ASSERT_EQ(results.size(), 2u);
    }

    // A second coordinator over the same directory finds both jobs in
    // done/ and collects pure cache hits — no re-simulation, and the
    // already-done entries are not re-enqueued.
    FarmCoordinator second(fo);
    const auto results = second.runCampaign(jobs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(second.report().recomputes, 0u);
    WorkQueue census(tmp.str(), "census", fo.tuning);
    EXPECT_EQ(census.counts().done, 2);
    EXPECT_EQ(census.counts().pending, 0);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(resultToJson(results[i]).dump(0),
                  resultToJson(localRun(jobs[i])).dump(0));
}

// ---------------------------------------------------------------------
// SweepEngine integration
// ---------------------------------------------------------------------

TEST(SweepEngineFarmTest, FarmedBatchMatchesInProcessBatch)
{
    TempDir tmp;
    const FarmWorkload w = streamWorkload();
    auto factory = makeWorkloadFactory(w);
    ASSERT_TRUE(factory);

    std::vector<Job> batch;
    for (core::Mechanism m : {core::Mechanism::SharedMemory,
                              core::Mechanism::MpInterrupt}) {
        Job j;
        j.app = factory;
        j.spec.mechanism = m;
        j.appKey = w.appKey();
        batch.push_back(std::move(j));
    }

    SweepEngine local;
    const auto expected = local.run(batch);

    EngineOptions fo;
    fo.farmDir = (tmp.path / "farm").string();
    fo.workload = w;
    fo.farm = fastTuning();
    fo.jobs = 2;
    FarmReport report;
    fo.farmReport = &report;
    SweepEngine farmed(fo);
    const auto got = farmed.run(batch);

    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(resultToJson(got[i]).dump(0),
                  resultToJson(expected[i]).dump(0))
            << "job " << i;
    EXPECT_TRUE(report.farmed);
    EXPECT_TRUE(report.quarantined.empty());
}

TEST(SweepEngineFarmTest, ObservedBatchRejectsTheFarmDir)
{
    // Farm workers run obs-detached; combining a farm campaign with
    // observability sinks is a hard configuration error, not a
    // silent in-process fallback (the per-run files the caller asked
    // for would otherwise just not exist on the workers).
    TempDir tmp;
    const FarmWorkload w = streamWorkload();
    auto factory = makeWorkloadFactory(w);

    std::vector<Job> batch(1);
    batch[0].app = factory;
    batch[0].spec.mechanism = core::Mechanism::SharedMemory;
    batch[0].appKey = w.appKey();

    EngineOptions fo;
    fo.farmDir = (tmp.path / "farm").string();
    fo.workload = w;
    fo.obs.metricsOut = (tmp.path / "met.json").string();
    SweepEngine engine(fo);
    EXPECT_DEATH(engine.run(batch), "obs-detached");
}

TEST(SweepEngineFarmTest, UnfarmableBatchFallsBackInProcess)
{
    // No FarmWorkload: the engine cannot serialize the jobs and must
    // run them in-process with a warning, not fail or misbehave.
    TempDir tmp;
    const FarmWorkload w = streamWorkload();
    auto factory = makeWorkloadFactory(w);

    std::vector<Job> batch(1);
    batch[0].app = factory;
    batch[0].spec.mechanism = core::Mechanism::SharedMemory;
    batch[0].appKey = w.appKey();

    EngineOptions fo;
    fo.farmDir = (tmp.path / "farm").string();
    // fo.workload left empty on purpose
    FarmReport report;
    fo.farmReport = &report;
    SweepEngine engine(fo);
    const auto got = engine.run(batch);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(got[0].verified);
    EXPECT_FALSE(report.farmed);
    // Nothing was materialized under the farm directory.
    EXPECT_FALSE(fs::exists(tmp.path / "farm" / "pending"));
}

} // namespace
} // namespace alewife::exp
