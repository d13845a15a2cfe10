#include "exp/queue.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "apps/graph/catalog.hh"
#include "sim/logging.hh"

namespace alewife::exp {

namespace fs = std::filesystem;

FarmFault
farmFaultFromEnv()
{
    const char *v = std::getenv("FARM_FAULT");
    if (!v || !*v)
        return FarmFault::None;
    const std::string s(v);
    if (s == "drop-lease")
        return FarmFault::DropLease;
    if (s == "stall-heartbeat")
        return FarmFault::StallHeartbeat;
    if (s == "corrupt-result")
        return FarmFault::CorruptResult;
    if (s == "kill-after-claim")
        return FarmFault::KillAfterClaim;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        ALEWIFE_WARN("FARM_FAULT='", s,
                     "' is not a known fault (valid: drop-lease, "
                     "stall-heartbeat, corrupt-result, "
                     "kill-after-claim); running fault-free");
    return FarmFault::None;
}

const char *
farmFaultName(FarmFault f)
{
    switch (f) {
    case FarmFault::None:
        return "";
    case FarmFault::DropLease:
        return "drop-lease";
    case FarmFault::StallHeartbeat:
        return "stall-heartbeat";
    case FarmFault::CorruptResult:
        return "corrupt-result";
    case FarmFault::KillAfterClaim:
        return "kill-after-claim";
    }
    return "";
}

std::int64_t
farmNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

std::string
FarmWorkload::appKey() const
{
    if (app.empty())
        return "";
    // Must match sweep_cli's historical appKey format exactly: cache
    // entries written by local sweeps and by farm workers are the same
    // entries.
    std::ostringstream key;
    key << app << "/scale=" << scale;
    if (apps::graph::findApp(app))
        key << "/graph=" << graph;
    return key.str();
}

// ---------------------------------------------------------------------
// MachineConfig <-> JSON
// ---------------------------------------------------------------------

Json
machineConfigToJson(const MachineConfig &c)
{
    Json j = Json::object();
    j.set("name", c.name);
    forEachConfigField(c, [&](const char *k, const auto &v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::uint32_t>)
            j.set(k, static_cast<std::uint64_t>(v));
        else
            j.set(k, v);
    });
    return j;
}

MachineConfig
machineConfigFromJson(const Json &j)
{
    MachineConfig c;
    // Lenient field-by-field decode: absent or mistyped fields keep
    // their defaults (the canonical key embedded in cache lookups
    // catches any drift this tolerance lets through).
    if (const Json *v = j.find("name"); v && v->isString())
        c.name = v->asString();
    forEachConfigField(c, [&](const char *k, auto &field) {
        using T = std::decay_t<decltype(field)>;
        const Json *v = j.find(k);
        if constexpr (std::is_same_v<T, bool>) {
            if (v && v->type() == Json::Type::Bool)
                field = v->asBool();
        } else if (v && v->isNumber()) {
            field = static_cast<T>(v->asDouble());
        }
    });
    return c;
}

// ---------------------------------------------------------------------
// FarmJob <-> JSON
// ---------------------------------------------------------------------

Json
farmJobToJson(const FarmJob &job)
{
    Json w = Json::object();
    w.set("app", job.workload.app);
    w.set("graph", job.workload.graph);
    w.set("scale", job.workload.scale);

    Json spec = Json::object();
    spec.set("mechanism", core::mechanismShortName(job.spec.mechanism));
    spec.set("crossBytesPerCycle", job.spec.crossTraffic.bytesPerCycle);
    spec.set("crossMessageBytes",
             static_cast<std::uint64_t>(
                 job.spec.crossTraffic.messageBytes));
    spec.set("machine", machineConfigToJson(job.spec.machine));

    Json j = Json::object();
    j.set("schema", kFarmJobSchema);
    j.set("version", kFarmSchemaVersion);
    j.set("id", job.id);
    j.set("appKey", job.appKey);
    j.set("workload", std::move(w));
    j.set("spec", std::move(spec));
    j.set("attempts", job.attempts);
    j.set("notBeforeMs", static_cast<double>(job.notBeforeMs));
    j.set("lastError", job.lastError);
    return j;
}

std::optional<FarmJob>
farmJobFromJson(const Json &j, std::string *err)
{
    auto fail = [&](const std::string &why) -> std::optional<FarmJob> {
        if (err)
            *err = why;
        return std::nullopt;
    };
    if (!j.isObject())
        return fail("farm job: not an object");
    const Json *schema = j.find("schema");
    const Json *version = j.find("version");
    if (!schema || !schema->isString()
        || schema->asString() != kFarmJobSchema)
        return fail("farm job: wrong schema tag");
    if (!version || !version->isNumber()
        || static_cast<int>(version->asDouble()) != kFarmSchemaVersion)
        return fail("farm job: unsupported version");
    for (const char *k : {"id", "appKey", "workload", "spec"})
        if (!j.find(k))
            return fail(std::string("farm job: missing '") + k + "'");

    // Typed accessors are fatal on mismatch; every field a corrupt or
    // hand-edited entry could break is checked first so bad entries
    // poison one job instead of killing the worker that read them.
    if (!j.at("id").isNumber() || !j.at("appKey").isString())
        return fail("farm job: malformed id/appKey");
    const Json &w = j.at("workload");
    if (!w.isObject())
        return fail("farm job: workload is not an object");
    for (const char *k : {"app", "graph"})
        if (!w.find(k) || !w.at(k).isString())
            return fail(std::string("farm job: workload '") + k
                        + "' missing or not a string");
    if (!w.find("scale") || !w.at("scale").isNumber())
        return fail("farm job: workload scale missing");
    const Json &spec = j.at("spec");
    if (!spec.isObject() || !spec.find("mechanism")
        || !spec.at("mechanism").isString()
        || !spec.find("crossBytesPerCycle")
        || !spec.at("crossBytesPerCycle").isNumber()
        || !spec.find("crossMessageBytes")
        || !spec.at("crossMessageBytes").isNumber()
        || !spec.find("machine") || !spec.at("machine").isObject())
        return fail("farm job: malformed spec");

    FarmJob job;
    job.id = static_cast<int>(j.at("id").asDouble());
    job.appKey = j.at("appKey").asString();
    job.workload.app = w.at("app").asString();
    job.workload.graph = w.at("graph").asString();
    job.workload.scale = w.at("scale").asDouble();
    const std::string mech = spec.at("mechanism").asString();
    const std::optional<core::Mechanism> m = core::mechanismFromName(mech);
    if (!m)
        return fail("farm job: unknown mechanism '" + mech + "'");
    job.spec.mechanism = *m;
    job.spec.crossTraffic.bytesPerCycle =
        spec.at("crossBytesPerCycle").asDouble();
    job.spec.crossTraffic.messageBytes = static_cast<std::uint32_t>(
        spec.at("crossMessageBytes").asDouble());
    job.spec.machine = machineConfigFromJson(spec.at("machine"));
    if (const Json *v = j.find("attempts"))
        job.attempts = static_cast<int>(v->asDouble());
    if (const Json *v = j.find("notBeforeMs"))
        job.notBeforeMs = static_cast<std::int64_t>(v->asDouble());
    if (const Json *v = j.find("lastError"))
        job.lastError = v->asString();
    return job;
}

bool
writeFileAtomic(const std::string &path, const std::string &body,
                std::string *err)
{
    static std::atomic<std::uint64_t> tmpSeq{0};
    const std::string tmp = path + ".tmp." + std::to_string(getpid())
                            + "." + std::to_string(tmpSeq.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            if (err)
                *err = "cannot write " + tmp;
            return false;
        }
        out << body;
        out.flush();
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            if (err)
                *err = "short write to " + tmp;
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        if (err)
            *err = "cannot rename into " + path;
        return false;
    }
    return true;
}

std::optional<Json>
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string err;
    Json j = Json::parse(buf.str(), &err);
    if (j.isNull())
        return std::nullopt;
    return j;
}

// ---------------------------------------------------------------------
// WorkQueue
// ---------------------------------------------------------------------

namespace {

std::string
entryName(int id)
{
    char name[32];
    std::snprintf(name, sizeof(name), "%06d.json", id);
    return name;
}

/** Filename -> job id; nullopt for temp files and strangers. */
std::optional<int>
entryId(const fs::path &p)
{
    const std::string name = p.filename().string();
    if (name.size() != 11 || name.compare(6, 5, ".json") != 0)
        return std::nullopt;
    int id = 0;
    for (int i = 0; i < 6; ++i) {
        if (name[i] < '0' || name[i] > '9')
            return std::nullopt;
        id = id * 10 + (name[i] - '0');
    }
    return id;
}

std::string
sanitizeForFilename(std::string s)
{
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-'
            && c != '_' && c != '.')
            c = '_';
    return s;
}

} // namespace

WorkQueue::WorkQueue(std::string dir, std::string workerId,
                     FarmTuning tuning)
    : dir_(std::move(dir)), workerId_(std::move(workerId)),
      tuning_(tuning)
{
}

std::string
WorkQueue::defaultWorkerId()
{
    char host[128] = "host";
    if (gethostname(host, sizeof(host) - 1) != 0)
        std::snprintf(host, sizeof(host), "host");
    host[sizeof(host) - 1] = '\0';
    return std::string(host) + ":" + std::to_string(getpid());
}

bool
WorkQueue::initDirs()
{
    std::error_code ec;
    bool ok = true;
    for (const char *sub :
         {"pending", "leased", "done", "poison", "leases", "events"}) {
        fs::create_directories(fs::path(dir_) / sub, ec);
        ok = ok && !ec;
    }
    return ok;
}

bool
WorkQueue::ready() const
{
    std::error_code ec;
    for (const char *sub : {"pending", "leased", "leases"}) {
        if (!fs::is_directory(fs::path(dir_) / sub, ec) || ec)
            return false;
    }
    return true;
}

std::string
WorkQueue::statePath(const std::string &state, int id) const
{
    return (fs::path(dir_) / state / entryName(id)).string();
}

std::string
WorkQueue::leasePath(int id) const
{
    return (fs::path(dir_) / "leases" / entryName(id)).string();
}

bool
WorkQueue::enqueue(const FarmJob &job, std::string *err)
{
    return writeFileAtomic(statePath("pending", job.id),
                           farmJobToJson(job).dump(1) + "\n", err);
}

std::vector<int>
WorkQueue::idsIn(const std::string &state) const
{
    std::vector<int> ids;
    std::error_code ec;
    fs::directory_iterator it(fs::path(dir_) / state, ec);
    if (ec)
        return ids;
    for (const auto &entry : it) {
        if (auto id = entryId(entry.path()))
            ids.push_back(*id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::optional<FarmJob>
WorkQueue::readEntry(const std::string &state, int id) const
{
    auto j = readJsonFile(statePath(state, id));
    if (!j)
        return std::nullopt;
    std::string err;
    return farmJobFromJson(*j, &err);
}

bool
WorkQueue::writeLease(int id, std::int64_t nowMs)
{
    Json j = Json::object();
    j.set("schema", "alewife-farm-lease");
    j.set("version", kFarmSchemaVersion);
    j.set("job", id);
    j.set("worker", workerId_);
    j.set("heartbeatMs", static_cast<double>(nowMs));
    return writeFileAtomic(leasePath(id), j.dump(-1) + "\n");
}

void
WorkQueue::logEvent(const std::string &kind, int jobId,
                    std::int64_t nowMs, const std::string &detail)
{
    std::error_code ec;
    const fs::path dir = fs::path(dir_) / "events";
    if (!fs::is_directory(dir, ec) || ec)
        return; // events are best-effort telemetry, never load-bearing
    Json j = Json::object();
    j.set("ev", kind);
    j.set("job", jobId);
    j.set("worker", workerId_);
    j.set("tMs", static_cast<double>(nowMs));
    if (!detail.empty())
        j.set("detail", detail);
    std::ofstream out(dir / (sanitizeForFilename(workerId_) + ".jsonl"),
                      std::ios::app);
    out << j.dump(-1) << "\n";
}

std::optional<FarmJob>
WorkQueue::claim(std::int64_t nowMs)
{
    for (int id : idsIn("pending")) {
        auto job = readEntry("pending", id);
        if (!job)
            continue; // claimed by someone else between list and read
        if (job->notBeforeMs > nowMs)
            continue; // backing off after a failure
        std::error_code ec;
        fs::rename(statePath("pending", id), statePath("leased", id),
                   ec);
        if (ec)
            continue; // lost the race; next candidate
        writeLease(id, nowMs);
        logEvent("claim", id, nowMs,
                 job->attempts > 0
                     ? "retry attempt " + std::to_string(job->attempts)
                     : "");
        if (faultArmed_ && tuning_.fault == FarmFault::KillAfterClaim) {
            // Die exactly as a kill -9 mid-job would: lease held, no
            // cleanup, entry stranded in leased/ until the reaper acts.
            std::_Exit(9);
        }
        if (faultArmed_ && tuning_.fault == FarmFault::DropLease) {
            faultArmed_ = false;
            fs::remove(leasePath(id), ec);
        }
        return job;
    }
    return std::nullopt;
}

void
WorkQueue::heartbeat(int jobId, std::int64_t nowMs)
{
    if (tuning_.fault == FarmFault::StallHeartbeat)
        return; // fault: lease goes stale while we keep working
    writeLease(jobId, nowMs);
}

bool
WorkQueue::complete(const FarmJob &job, std::int64_t nowMs)
{
    // Ownership check: a job reclaimed while we ran belongs to someone
    // else now. The deterministic result is already in the shared
    // cache, so dropping the completion is loss-free.
    bool owner = false;
    if (auto lease = readJsonFile(leasePath(job.id))) {
        const Json *w = lease->find("worker");
        owner = w && w->isString() && w->asString() == workerId_;
    }
    std::error_code ec;
    if (owner) {
        fs::rename(statePath("leased", job.id),
                   statePath("done", job.id), ec);
        owner = !ec; // reaped between the lease read and the rename
    }
    if (!owner) {
        ++lateCompletions_;
        logEvent("late-complete", job.id, nowMs);
        return false;
    }
    fs::remove(leasePath(job.id), ec);
    ++completions_;
    logEvent("complete", job.id, nowMs);
    return true;
}

void
WorkQueue::requeueOrPoison(FarmJob job, const std::string &error,
                           std::int64_t nowMs, ReapStats *stats)
{
    job.attempts += 1;
    job.lastError = error;
    std::error_code ec;
    if (job.attempts > tuning_.retryBudget) {
        writeFileAtomic(statePath("poison", job.id),
                        farmJobToJson(job).dump(1) + "\n");
        if (stats)
            ++stats->quarantines;
        logEvent("quarantine", job.id, nowMs, error);
    } else {
        // Exponential backoff: base * 2^(attempt-1).
        job.notBeforeMs =
            nowMs + (tuning_.backoffBaseMs << (job.attempts - 1));
        writeFileAtomic(statePath("pending", job.id),
                        farmJobToJson(job).dump(1) + "\n");
        if (stats)
            ++stats->reclaims;
        logEvent("requeue", job.id, nowMs, error);
    }
    // Destination written first, then the old state removed: a crash
    // here leaves a duplicate entry, which the at-least-once protocol
    // absorbs (reruns are deterministic and cache-idempotent).
    fs::remove(statePath("leased", job.id), ec);
    fs::remove(leasePath(job.id), ec);
}

void
WorkQueue::fail(const FarmJob &job, const std::string &error,
                std::int64_t nowMs)
{
    logEvent("fail", job.id, nowMs, error);
    requeueOrPoison(job, error, nowMs, nullptr);
}

ReapStats
WorkQueue::reapExpired(std::int64_t nowMs)
{
    ReapStats stats;
    // An entry file that exists but does not parse can never be
    // claimed or completed; left alone it would pin the campaign open
    // forever. Quarantine it raw so the sweep can finish without it.
    for (const char *state : {"pending", "leased"}) {
        for (int id : idsIn(state)) {
            if (readJsonFile(statePath(state, id))
                && readEntry(state, id))
                continue;
            std::error_code ec;
            fs::rename(statePath(state, id), statePath("poison", id),
                       ec);
            if (!ec) {
                ++stats.quarantines;
                fs::remove(leasePath(id), ec);
                logEvent("quarantine", id, nowMs, "unreadable entry");
                ALEWIFE_WARN("farm: quarantined unreadable queue entry "
                             "#", id, " in ", state, "/");
            }
        }
    }
    // Rebuilt every pass, so an id drops out once its lease appears or
    // it leaves leased/.
    std::map<int, std::int64_t> leaseless;
    for (int id : idsIn("leased")) {
        std::string holder = "unknown";
        std::int64_t hbMs = -1;
        if (auto lease = readJsonFile(leasePath(id))) {
            if (const Json *w = lease->find("worker"))
                holder = w->asString();
            if (const Json *t = lease->find("heartbeatMs"))
                hbMs = static_cast<std::int64_t>(t->asDouble());
        }
        if (hbMs < 0) {
            const auto seen = leaselessSinceMs_.find(id);
            const std::int64_t since =
                seen != leaselessSinceMs_.end() ? seen->second : nowMs;
            if (nowMs - since <= tuning_.leaseTtlMs) {
                leaseless.emplace(id, since);
                continue;
            }
        } else if (nowMs - hbMs <= tuning_.leaseTtlMs) {
            continue;
        }
        auto job = readEntry("leased", id);
        if (!job)
            continue; // completed or failed while we looked
        ++stats.leaseExpiries;
        requeueOrPoison(std::move(*job),
                        hbMs < 0
                            ? "lease lost (worker " + holder
                                  + " left no heartbeat)"
                            : "lease expired (worker " + holder
                                  + " last heartbeat "
                                  + std::to_string(nowMs - hbMs)
                                  + "ms ago)",
                        nowMs, &stats);
    }
    leaselessSinceMs_ = std::move(leaseless);
    return stats;
}

QueueCounts
WorkQueue::counts() const
{
    QueueCounts c;
    c.pending = static_cast<int>(idsIn("pending").size());
    c.leased = static_cast<int>(idsIn("leased").size());
    c.done = static_cast<int>(idsIn("done").size());
    c.poisoned = static_cast<int>(idsIn("poison").size());
    return c;
}

std::uint64_t
WorkQueue::countEvents(const std::string &kind) const
{
    std::uint64_t claims = 0;
    std::error_code ec;
    fs::directory_iterator it(fs::path(dir_) / "events", ec);
    if (ec)
        return 0;
    for (const auto &entry : it) {
        if (entry.path().extension() != ".jsonl")
            continue;
        std::ifstream in(entry.path());
        std::string line;
        while (std::getline(in, line)) {
            std::string err;
            const Json j = Json::parse(line, &err);
            if (!j.isObject())
                continue;
            const Json *ev = j.find("ev");
            if (ev && ev->isString() && ev->asString() == kind)
                ++claims;
        }
    }
    return claims;
}

} // namespace alewife::exp
