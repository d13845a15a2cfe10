/**
 * @file
 * Filesystem-backed work-queue protocol for the distributed sweep farm.
 *
 * One sweep campaign lives in a single *farm directory* that every
 * participating process (one coordinator, any number of workers, on one
 * or more hosts sharing the filesystem) can see. A job is a single JSON
 * file that moves between state subdirectories; every state transition
 * is one atomic rename, so the protocol needs no locks and survives
 * `kill -9` at any instruction:
 *
 *   pending/NNNNNN.json   materialized, claimable (subject to backoff)
 *   leased/NNNNNN.json    claimed by a worker holding leases/NNNNNN.json
 *   done/NNNNNN.json      completed; result lives in the shared cache
 *   poison/NNNNNN.json    failed > retry budget; spec + last error kept
 *
 * Claiming is rename-based: a worker renames pending/N -> leased/N and
 * wins iff the source still existed — the loser's rename fails with
 * ENOENT and it moves on. The winner then writes leases/N (worker id +
 * heartbeat timestamp, write-tmp-then-rename) and renews it on a
 * heartbeat interval. The coordinator reaps leased entries whose lease
 * is missing or older than the TTL: the job is re-queued with
 * exponential backoff and an incremented attempt count, or quarantined
 * to poison/ once the retry budget is exhausted. Workers append
 * one-line JSON events to events/<worker>.jsonl (their own file — no
 * shared appends), which is where the status JSON gets its claim
 * counts.
 *
 * Every recovery path is deterministically testable through the
 * FARM_FAULT hook (see FarmFault below), mirroring the check:: fault
 * style: drop-lease, stall-heartbeat, corrupt-result, kill-after-claim.
 */

#ifndef ALEWIFE_EXP_QUEUE_HH
#define ALEWIFE_EXP_QUEUE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "exp/json.hh"

namespace alewife::exp {

/** Schema tag/version of job, lease and status documents. */
inline constexpr const char *kFarmJobSchema = "alewife-farm-job";
inline constexpr const char *kFarmStatusSchema = "alewife-farm-status";
inline constexpr int kFarmSchemaVersion = 1;

/**
 * Deterministic fault injection into the queue layer, selected by the
 * FARM_FAULT environment variable in worker processes (or set directly
 * in FarmTuning by tests). Each fault fires once per process, on the
 * first claim (or first stored result), so a faulty worker exercises
 * exactly one recovery path and then behaves normally.
 */
enum class FarmFault
{
    None,
    /** Delete the lease file right after claiming: the coordinator
     *  sees a leased job with no lease and reclaims it once it has
     *  stayed lease-less for the TTL. */
    DropLease,
    /** Never renew the lease: the heartbeat goes stale and the job is
     *  reclaimed after the TTL even though the worker is still alive. */
    StallHeartbeat,
    /** Truncate the result-cache entry after storing it: collection
     *  hits the cache-corruption path (quarantine + recompute). */
    CorruptResult,
    /** _exit(9) immediately after claiming, lease held: simulates a
     *  worker killed mid-job without the courtesy of cleanup. */
    KillAfterClaim,
};

/** Parse FARM_FAULT ("drop-lease", ...); unknown values warn once. */
FarmFault farmFaultFromEnv();

/** Round-trip names for FarmFault (None <-> ""). */
const char *farmFaultName(FarmFault f);

/** Wall-clock milliseconds since the Unix epoch. */
std::int64_t farmNowMs();

/** Atomic small-file write: temp in the same dir, then rename. */
bool writeFileAtomic(const std::string &path, const std::string &body,
                     std::string *err = nullptr);

/** Parse a JSON file; nullopt when unreadable or malformed. */
std::optional<Json> readJsonFile(const std::string &path);

/**
 * Protocol tuning shared by coordinator and workers. The coordinator
 * persists these in the farm manifest so workers started with nothing
 * but --farm-dir agree on TTLs and budgets.
 */
struct FarmTuning
{
    /** Lease freshness bound; older heartbeats mean a dead worker. */
    std::int64_t leaseTtlMs = 10'000;
    /** Lease renewal period (workers). */
    std::int64_t heartbeatMs = 2'000;
    /** Idle poll period for claim retries and the coordinator loop. */
    std::int64_t pollMs = 200;
    /** First retry delay; doubles per attempt (exponential backoff). */
    std::int64_t backoffBaseMs = 500;
    /** Re-queues before a job is quarantined to the poison list. */
    int retryBudget = 3;
    /** Injected fault (tests; worker processes read FARM_FAULT). */
    FarmFault fault = FarmFault::None;
};

/**
 * Serializable workload identity: everything a worker process needs to
 * rebuild the AppFactory of a job (exp::makeWorkloadFactory). The app
 * name is a sweep_cli-style catalog name; graph names the synthetic
 * graph family for the graph-analytics apps and is ignored otherwise.
 */
struct FarmWorkload
{
    std::string app;
    std::string graph = "uniform";
    double scale = 1.0;

    bool empty() const { return app.empty(); }

    /** Cache workload identity, identical to sweep_cli's appKey. */
    std::string appKey() const;
};

/** One durable queue entry. */
struct FarmJob
{
    /** Submission index within the campaign; names the entry file. */
    int id = 0;
    /** Result-cache workload identity (FarmWorkload::appKey()). */
    std::string appKey;
    FarmWorkload workload;
    core::RunSpec spec;

    /** Times this job has been re-queued after a failure or reap. */
    int attempts = 0;
    /** Earliest claimable wall-clock time (backoff); 0 = immediately. */
    std::int64_t notBeforeMs = 0;
    /** Last failure or reap description (poison entries keep it). */
    std::string lastError;
};

/** MachineConfig <-> JSON, field by field (canonicalKey-faithful). */
Json machineConfigToJson(const MachineConfig &c);
MachineConfig machineConfigFromJson(const Json &j);

/** FarmJob <-> schema-tagged JSON document. */
Json farmJobToJson(const FarmJob &job);
/** Returns nullopt and sets @p err on malformed/mismatched documents. */
std::optional<FarmJob> farmJobFromJson(const Json &j, std::string *err);

/**
 * Stable per-job snapshot file name, shared by the local SweepEngine
 * crash-tolerance path and the farm (so a job re-claimed by another
 * worker warm-resumes the previous worker's partial run):
 * fnv1a64(id|appKey|mechanism|canonicalKey) + "-latest.ckpt.json".
 */
std::string jobSnapshotFile(int id, const std::string &appKey,
                            const core::RunSpec &spec);

/** Live state-directory census of a farm. */
struct QueueCounts
{
    int pending = 0;
    int leased = 0;
    int done = 0;
    int poisoned = 0;

    int total() const { return pending + leased + done + poisoned; }
    bool drained() const { return pending == 0 && leased == 0; }
};

/** Everything one reap pass did. */
struct ReapStats
{
    std::uint64_t leaseExpiries = 0; ///< stale-heartbeat leases found
    std::uint64_t reclaims = 0;      ///< jobs re-queued for retry
    std::uint64_t quarantines = 0;   ///< jobs moved to the poison list
};

class WorkQueue
{
  public:
    /**
     * Attach to (not create) the farm at @p dir. @p workerId names this
     * process in leases and event logs; it must be unique per process
     * (defaultWorkerId() is host+pid based).
     */
    WorkQueue(std::string dir, std::string workerId, FarmTuning tuning);

    /** "host:pid" — unique per live process on a shared filesystem. */
    static std::string defaultWorkerId();

    /** Create the state subdirectories. False on filesystem failure. */
    bool initDirs();

    /** True while every state subdirectory is reachable. A farm whose
     *  directory vanished (NFS blip, rm -rf) turns this false and
     *  workers degrade to draining their current job and exiting. */
    bool ready() const;

    /** Durably add @p job to pending/ (write-tmp-then-rename). */
    bool enqueue(const FarmJob &job, std::string *err = nullptr);

    /**
     * Claim one eligible pending job (notBeforeMs <= now, lowest id
     * first): atomic rename into leased/ plus a fresh lease file.
     * nullopt when nothing is claimable right now.
     */
    std::optional<FarmJob> claim(std::int64_t nowMs);

    /** Renew this worker's lease on @p jobId. */
    void heartbeat(int jobId, std::int64_t nowMs);

    /**
     * Mark @p job done. Verifies this worker still owns the lease; a
     * reclaimed job (lease stolen or gone) is left alone and false is
     * returned — the result is already in the shared cache, so a late
     * completion loses nothing but the race.
     */
    bool complete(const FarmJob &job, std::int64_t nowMs);

    /**
     * Worker-side failure: release the lease and either re-queue with
     * exponential backoff or quarantine when the budget is spent.
     */
    void fail(const FarmJob &job, const std::string &error,
              std::int64_t nowMs);

    /**
     * Coordinator duty: reap every leased entry whose heartbeat is
     * older than the TTL, or whose lease has been missing for longer
     * than the TTL since this queue handle first saw it missing (claim
     * renames the entry before it writes the lease, so a lease-less
     * entry may be a claim in flight); re-queue (backoff, attempts+1)
     * or quarantine. Safe to run concurrently with workers.
     */
    ReapStats reapExpired(std::int64_t nowMs);

    /** Count entries per state directory. */
    QueueCounts counts() const;

    /** Sum of events of one kind over every worker event log. */
    std::uint64_t countEvents(const std::string &kind) const;

    /** Parse one state-dir entry by id; nullopt if absent/unreadable. */
    std::optional<FarmJob> readEntry(const std::string &state,
                                     int id) const;

    /** Ids present in one state directory, ascending. */
    std::vector<int> idsIn(const std::string &state) const;

    /** Completions this queue handle recorded (owner check passed). */
    std::uint64_t completions() const { return completions_; }
    /** Completions dropped because the lease was no longer ours. */
    std::uint64_t lateCompletions() const { return lateCompletions_; }

    const std::string &dir() const { return dir_; }
    const std::string &workerId() const { return workerId_; }
    const FarmTuning &tuning() const { return tuning_; }

    /** Append a one-line JSON event to this worker's event log. */
    void logEvent(const std::string &kind, int jobId,
                  std::int64_t nowMs,
                  const std::string &detail = "");

  private:
    std::string statePath(const std::string &state, int id) const;
    std::string leasePath(int id) const;
    bool writeLease(int id, std::int64_t nowMs);
    /** Re-queue or poison @p job (attempts already incremented). */
    void requeueOrPoison(FarmJob job, const std::string &error,
                         std::int64_t nowMs, ReapStats *stats);

    std::string dir_;
    std::string workerId_;
    FarmTuning tuning_;
    bool faultArmed_ = true; ///< one-shot FARM_FAULT not yet fired
    std::uint64_t completions_ = 0;
    std::uint64_t lateCompletions_ = 0;
    /** Leased entries the reaper found without a lease: id -> time of
     *  the first pass that saw it so. */
    std::map<int, std::int64_t> leaselessSinceMs_;
};

} // namespace alewife::exp

#endif // ALEWIFE_EXP_QUEUE_HH
