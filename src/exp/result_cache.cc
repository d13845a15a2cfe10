#include "exp/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ckpt/snapshot.hh"
#include "exp/queue.hh"
#include "exp/serialize.hh"
#include "sim/logging.hh"

namespace alewife::exp {

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::key(const core::RunSpec &spec, const std::string &appKey)
{
    if (appKey.empty())
        return "";
    // Perturbed runs explore alternate-but-legal schedules; their
    // results are seed-dependent and must never be cached. Delay
    // injections change results by design and are likewise never
    // cached (the knob is not part of the key).
    if (spec.perturb.enabled() || spec.delay.enabled())
        return "";
    char cross[96];
    std::snprintf(cross, sizeof(cross),
                  "crossBpc=%.17g;crossMsgBytes=%u;",
                  spec.crossTraffic.bytesPerCycle,
                  spec.crossTraffic.messageBytes);
    // The key carries both serialization schema versions: a bump of
    // the result layout *or* of the checkpoint format (which tracks
    // what captured machine state means) invalidates every cached
    // result.
    const std::string schemas =
        "rs" + std::to_string(kResultSchemaVersion) + ".cs" +
        std::to_string(ckpt::kCkptSchemaVersion);
    return schemas + "|" + appKey + "|"
           + core::mechanismShortName(spec.mechanism) + "|"
           + spec.machine.canonicalKey() + "|" + cross;
}

std::optional<core::RunResult>
ResultCache::lookup(const std::string &key)
{
    if (key.empty())
        return std::nullopt;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = mem_.find(key);
        if (it != mem_.end()) {
            ++hits_;
            return it->second;
        }
    }
    if (!dir_.empty()) {
        if (auto r = loadFromDisk(key)) {
            std::lock_guard<std::mutex> lock(mu_);
            mem_.emplace(key, *r);
            ++hits_;
            return r;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    return std::nullopt;
}

void
ResultCache::store(const std::string &key, const core::RunResult &r)
{
    if (key.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        mem_.insert_or_assign(key, r);
    }
    if (!dir_.empty())
        persist(key, r);
}

std::string
ResultCache::filePath(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return dir_ + "/" + name;
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    if (dir_.empty() || key.empty())
        return "";
    return filePath(key);
}

void
ResultCache::quarantineBadEntry(const std::string &path,
                                const std::string &why)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++quarantined_;
        if (!warnedBad_.insert(path).second)
            return; // already reported this path
    }
    ALEWIFE_WARN("result cache: corrupt entry ", path, " (", why,
                 "); quarantined to ", path, ".bad — the result will "
                 "be recomputed");
    std::error_code ec;
    std::filesystem::rename(path, path + ".bad", ec);
    if (ec)
        std::filesystem::remove(path, ec);
}

std::optional<core::RunResult>
ResultCache::loadFromDisk(const std::string &key)
{
    const std::string path = filePath(key);
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();

    // A corrupted, truncated or undecodable entry (torn disk, faulty
    // worker, hand edit) is quarantined — renamed to *.bad and
    // reported once — so the sweep recomputes the result instead of
    // failing on it.
    std::string err;
    const Json j = Json::parse(buf.str(), &err);
    if (!err.empty() || !j.isObject()) {
        quarantineBadEntry(path,
                           err.empty() ? "not a JSON object" : err);
        return std::nullopt;
    }
    const Json *schema = j.find("schema");
    const Json *version = j.find("version");
    const Json *stored = j.find("key");
    if (!schema || !schema->isString() || !version
        || !version->isNumber() || !stored || !stored->isString()
        || !j.find("result")) {
        quarantineBadEntry(path, "cache-entry fields missing");
        return std::nullopt;
    }
    // Stale schema or (astronomically unlikely) hash collision: a
    // well-formed entry that simply isn't ours — a miss, not corruption.
    if (schema->asString() != "alewife-results"
        || static_cast<int>(version->asDouble()) != kResultSchemaVersion
        || stored->asString() != key) {
        return std::nullopt;
    }
    std::optional<core::RunResult> r = resultFromJson(j.at("result"), &err);
    if (!r)
        quarantineBadEntry(path, err);
    return r;
}

void
ResultCache::persist(const std::string &key, const core::RunResult &r)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        ALEWIFE_WARN("result cache: cannot create ", dir_, ": ",
                     ec.message());
        return;
    }
    Json j = Json::object();
    j.set("schema", "alewife-results");
    j.set("version", kResultSchemaVersion);
    j.set("kind", "cache-entry");
    j.set("key", key);
    j.set("result", resultToJson(r));

    // Write-then-rename through a per-process temp, so concurrent
    // writers of the same key, in this process or another, a short
    // write or a killed process never leave a torn entry behind.
    std::string err;
    if (!writeFileAtomic(filePath(key), j.dump(2) + "\n", &err))
        ALEWIFE_WARN("result cache: ", err);
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

std::uint64_t
ResultCache::quarantined() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return mem_.size();
}

} // namespace alewife::exp
