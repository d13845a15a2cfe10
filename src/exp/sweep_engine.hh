/**
 * @file
 * SweepEngine: parallel orchestration of independent simulations.
 *
 * Every paper figure is a batch of fully deterministic, mutually
 * independent runs; the engine executes such a batch on a pool of
 * worker threads — each run on its own Machine and EventQueue — and
 * returns results in submission order regardless of completion order,
 * so parallel output is byte-identical to the jobs=1 serial path.
 *
 * Layered on top:
 *  - an optional ResultCache consulted before and filled after every
 *    job, making repeated sweeps near-free;
 *  - a progress/telemetry hook reporting jobs queued/running/done,
 *    cache hits, and the aggregate simulated-event throughput.
 *
 * The serial path (jobs <= 1) spawns no threads at all, preserving
 * the exact legacy single-threaded behavior.
 */

#ifndef ALEWIFE_EXP_SWEEP_ENGINE_HH
#define ALEWIFE_EXP_SWEEP_ENGINE_HH

#include <functional>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "exp/farm.hh"

namespace alewife::exp {

class ResultCache;

/** One simulation to run: a workload factory plus its run spec. */
struct Job
{
    core::AppFactory app;
    core::RunSpec spec;
    /** Workload identity for caching; "" = never cached. */
    std::string appKey;
};

/** Telemetry snapshot passed to the progress hook after every job. */
struct Progress
{
    int queued = 0;    ///< total jobs in the batch
    int running = 0;   ///< jobs currently executing
    int done = 0;      ///< jobs finished (including cache hits)
    int cacheHits = 0; ///< jobs satisfied without simulating

    /** Simulated events executed by finished jobs of this batch. */
    std::uint64_t simEvents = 0;
    /** Wall-clock seconds since the batch started. */
    double elapsedSec = 0.0;

    /** Aggregate simulated-events/sec over the batch so far. */
    double
    eventsPerSec() const
    {
        return elapsedSec > 0.0
                   ? static_cast<double>(simEvents) / elapsedSec
                   : 0.0;
    }
};

/** Engine configuration, shared by the core experiment sweeps. */
struct EngineOptions
{
    /** Worker threads; <= 1 runs serially on the calling thread. */
    int jobs = 1;
    /** Optional cross-sweep result cache (not owned). */
    ResultCache *cache = nullptr;
    /**
     * Workload identity ("app/params") used by the experiment-level
     * wrappers to build cache keys; "" disables caching there.
     */
    std::string appKey;
    /**
     * Called after every job completes (and once when the batch is
     * empty). Serialized by the engine — the hook never runs
     * concurrently with itself. Must not throw.
     */
    std::function<void(const Progress &)> onProgress;
    /** Abort on checksum mismatch (the runner's verify_fatal). */
    bool verifyFatal = true;
    /**
     * Attach an invariant auditor to every job (panics at the first
     * violation). Audited sweeps always simulate — cached results are
     * not consulted — though results are still stored for later
     * unaudited sweeps (auditing never changes a result).
     */
    bool audit = false;
    /**
     * Observability for every job of the batch. Output paths are made
     * per-run (obs::withPathTag with "run<i>") so parallel workers
     * never share a file — one sink per simulation thread. When
     * metricsOut is set, the per-run metrics documents are merged into
     * one schema-versioned sweep file at that path after the batch.
     * Like audit, observed sweeps bypass cache reads (a cache hit
     * would skip writing the requested files) but still store.
     */
    obs::RecorderOptions obs;
    /**
     * Crash tolerance: when non-empty, every job periodically saves a
     * snapshot to <ckptDir>/<job-hash>-latest.ckpt.json and, if such a
     * file already exists when the job starts (a previous worker was
     * killed), resumes from it — audited bit-level against the replay —
     * instead of silently starting over. The file is removed when the
     * job completes. Job hashes are stable across process restarts for
     * identical batches.
     */
    std::string ckptDir;
    /** Snapshot interval in simulated cycles (with ckptDir). */
    double ckptIntervalCycles = 2'000'000.0;
    /**
     * Distributed execution: when non-empty, uncached jobs of the
     * batch are materialized as a farm campaign under this directory
     * (exp/farm.hh) instead of running on in-process threads — any
     * number of external `farm_cli worker` processes can join, `jobs`
     * in-process workers are contributed, and results come back
     * bit-identical (same cache keys) to the local path. Batches the
     * farm cannot serialize (audit, obs, empty workload, uncacheable
     * jobs) fall back to in-process execution with one warning.
     */
    std::string farmDir;
    /**
     * Serializable workload identity for farm jobs; must name the
     * same generated workload the batch's AppFactory builds (see
     * makeWorkloadFactory). Empty = batch is not farmable.
     */
    FarmWorkload workload;
    /** Queue-protocol tuning for the farm campaign. */
    FarmTuning farm;
    /** When non-null, receives the campaign's FarmReport (not owned;
     *  quarantined jobs, claims/reclaims/retries counters). */
    FarmReport *farmReport = nullptr;
};

class SweepEngine
{
  public:
    explicit SweepEngine(EngineOptions opts = {});

    /**
     * Run every job and return results in submission order.
     * Safe to call repeatedly; each call is an independent batch.
     */
    std::vector<core::RunResult> run(const std::vector<Job> &jobs);

    /** Telemetry of the most recent batch. */
    const Progress &progress() const { return progress_; }

    const EngineOptions &options() const { return opts_; }

  private:
    EngineOptions opts_;
    Progress progress_;
};

} // namespace alewife::exp

#endif // ALEWIFE_EXP_SWEEP_ENGINE_HH
