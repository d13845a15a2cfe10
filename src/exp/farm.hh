/**
 * @file
 * Fault-tolerant distributed sweep farm: coordinator and worker roles
 * over the filesystem work queue (exp/queue.hh), with the
 * content-addressed ResultCache as the shared result store.
 *
 * Topology: one FarmCoordinator materializes the job set as durable
 * queue entries, then loops reaping expired leases and publishing a
 * status JSON until the queue drains. Any number of FarmWorker
 * processes (or in-process worker threads spawned by the coordinator)
 * claim jobs, renew leases on a heartbeat, run the simulation with
 * per-job crash-tolerance snapshots (so a re-claimed job warm-resumes
 * another worker's partial run), and write results through the cache's
 * write-tmp-then-rename path. Collection reads every job's result back
 * from the cache by its deterministic key — which is why a farm run is
 * bit-identical, key for key, to a single-process SweepEngine run of
 * the same batch.
 *
 * Degradation ladder (robustness is the point):
 *   - worker killed / lease dropped: the coordinator reaps the lease
 *     and re-queues the job with exponential backoff;
 *   - job fails more than the retry budget: quarantined to poison/
 *     with the failing spec and last error; the sweep completes
 *     without it and reports it loudly (sweep_cli exits non-zero);
 *   - cache entry corrupted: quarantined to *.bad and recomputed by
 *     the coordinator at collection time;
 *   - queue directory vanishes (NFS blip, rm -rf): workers drain the
 *     job they hold — the result still lands in the cache — and exit
 *     cleanly instead of crashing;
 *   - a poisoned job whose result nevertheless appears in the cache
 *     (a straggler worker finished late) is rescued, not dropped.
 *
 * Every path above is deterministically reachable via FARM_FAULT
 * (exp/queue.hh) and pinned by the `farm`-labelled tests.
 */

#ifndef ALEWIFE_EXP_FARM_HH
#define ALEWIFE_EXP_FARM_HH

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/queue.hh"

namespace alewife::exp {

class ResultCache;

/**
 * Rebuild the AppFactory a FarmWorkload names, with exactly the same
 * parameterization sweep_cli uses (the two must agree for cache keys
 * to be shared). Returns an empty factory and sets @p err for unknown
 * app or graph-family names — a worker treats that as a job failure,
 * not a crash.
 */
core::AppFactory makeWorkloadFactory(const FarmWorkload &w,
                                     std::string *err = nullptr);

/** One job the farm gave up on, as reported to the caller. */
struct QuarantinedJob
{
    int id = 0;
    std::string appKey;
    std::string mechanism;
    int attempts = 0;
    std::string error;
};

/** Everything a farm campaign did, for callers and status JSON. */
struct FarmReport
{
    /** True when the batch actually went through the farm. */
    bool farmed = false;
    std::vector<QuarantinedJob> quarantined;
    std::uint64_t claims = 0;
    std::uint64_t completions = 0;
    std::uint64_t lateCompletions = 0;
    std::uint64_t leaseExpiries = 0;
    std::uint64_t reclaims = 0;
    std::uint64_t quarantines = 0;
    /** Jobs recomputed at collection (corrupt/missing cache entry). */
    std::uint64_t recomputes = 0;
    /** Poisoned jobs whose result a straggler still delivered. */
    std::uint64_t rescued = 0;
    std::uint64_t orphanSnapshotsDeleted = 0;
};

/** Campaign configuration (coordinator side). */
struct FarmOptions
{
    /** Farm directory; shared by every participating process. */
    std::string dir;
    /** Shared result store; "" = <dir>/cache. */
    std::string cacheDir;
    /** Per-job crash-tolerance snapshots; "" = <dir>/ckpt. */
    std::string ckptDir;
    /** Snapshot period in simulated cycles; <= 0 disables saves
     *  (resume from an existing snapshot still works). */
    double ckptIntervalCycles = 2'000'000.0;
    FarmTuning tuning;
    /** In-process worker threads the coordinator contributes. */
    int workers = 1;
    /** Called after every coordinator pass with the live census. */
    std::function<void(const QueueCounts &)> onStatus;
};

/** Manifest persisted as <dir>/farm.json by the coordinator, so
 *  workers started with nothing but --farm-dir agree on everything. */
struct FarmManifest
{
    std::string cacheDir;
    std::string ckptDir;
    double ckptIntervalCycles = 2'000'000.0;
    FarmTuning tuning;
};

bool writeFarmManifest(const std::string &dir, const FarmManifest &m,
                       std::string *err = nullptr);
std::optional<FarmManifest> readFarmManifest(const std::string &dir,
                                             std::string *err = nullptr);

/**
 * A worker process (or thread): claim-run-complete loop until the
 * queue drains, the job budget is reached, or the farm degrades.
 */
class FarmWorker
{
  public:
    struct Options
    {
        std::string farmDir;
        /** "" = WorkQueue::defaultWorkerId(). */
        std::string workerId;
        std::string cacheDir;
        std::string ckptDir;
        double ckptIntervalCycles = 2'000'000.0;
        FarmTuning tuning;
        /** Stop after this many completed jobs; < 0 = until drained. */
        int maxJobs = -1;
    };

    /** Build worker options from the farm manifest (external worker
     *  processes); FARM_FAULT is read from the environment here. */
    static std::optional<Options>
    optionsFromManifest(const std::string &farmDir,
                        std::string *err = nullptr);

    explicit FarmWorker(Options o);

    /** Run the claim loop; returns the number of jobs completed. */
    int runLoop();

    /** True if the worker exited because the queue dir vanished. */
    bool degraded() const { return degraded_; }

    /** Ask the loop to stop after the current job. */
    void requestStop() { stop_.store(true); }

  private:
    void runOne(WorkQueue &q, ResultCache &cache, const FarmJob &job);

    Options opts_;
    std::atomic<bool> stop_{false};
    bool degraded_ = false;
    bool faultArmed_ = true; ///< one-shot corrupt-result not yet fired
};

/**
 * The coordinator: materialize -> run-until-drained -> collect.
 * runCampaign() is the one-call wrapper SweepEngine uses.
 */
class FarmCoordinator
{
  public:
    explicit FarmCoordinator(FarmOptions opts);

    /**
     * Create the queue, persist the manifest, delete orphaned per-job
     * snapshots left by dead campaigns, and enqueue every job not
     * already present in some state directory (so a restarted
     * coordinator resumes a half-finished campaign instead of redoing
     * it). False on filesystem failure.
     */
    bool materialize(const std::vector<FarmJob> &jobs);

    /**
     * Reap/status loop (plus `workers` in-process worker threads)
     * until every job is done or poisoned.
     */
    void runUntilDrained();

    /**
     * Read every job's result back from the shared cache. Missing or
     * corrupt entries of done jobs are recomputed locally; poisoned
     * jobs yield an unverified placeholder and a QuarantinedJob
     * record (unless a straggler's result rescues them). Results are
     * in materialization order.
     */
    std::vector<core::RunResult> collect();

    /** Convenience: materialize + runUntilDrained + collect. */
    std::vector<core::RunResult>
    runCampaign(const std::vector<FarmJob> &jobs);

    const FarmReport &report() const { return report_; }
    const FarmOptions &options() const { return opts_; }

    /** The status document (also written to <dir>/status.json). */
    Json statusJson() const;

  private:
    void writeStatus();
    void seedCountersFromStatus();

    FarmOptions opts_;
    std::vector<FarmJob> jobs_;
    WorkQueue queue_;
    FarmReport report_;
};

/**
 * Status for `farm_cli status`: the coordinator-written status.json
 * refreshed with a live directory census. Null if @p dir is not a
 * farm.
 */
Json readFarmStatus(const std::string &dir);

} // namespace alewife::exp

#endif // ALEWIFE_EXP_FARM_HH
