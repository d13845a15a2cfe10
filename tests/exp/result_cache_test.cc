/**
 * @file
 * Tests for the experiment result cache: key semantics, memory hits,
 * and the on-disk JSON round trip.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "apps/stream.hh"
#include "core/runner.hh"
#include "exp/result_cache.hh"

namespace alewife::exp {
namespace {

core::RunSpec
baseSpec()
{
    core::RunSpec spec;
    spec.mechanism = core::Mechanism::SharedMemory;
    return spec;
}

core::RunResult
sampleResult()
{
    apps::Stream::Params p;
    p.valuesPerIter = 16;
    p.iters = 2;
    return core::runApp(apps::Stream::factory(p), baseSpec());
}

/** Fresh scratch directory, removed on scope exit. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        path = std::filesystem::temp_directory_path()
               / ("alewife-cache-test-"
                  + std::to_string(::getpid()) + "-"
                  + std::to_string(counter()++));
        std::filesystem::remove_all(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    static int &
    counter()
    {
        static int n = 0;
        return n;
    }
};

TEST(ResultCache, KeyIsStableAndSensitiveToEveryComponent)
{
    const core::RunSpec spec = baseSpec();
    const std::string k = ResultCache::key(spec, "stream/s=1");
    EXPECT_EQ(k, ResultCache::key(spec, "stream/s=1"));

    // Mechanism, machine knobs, cross traffic, and workload identity
    // must each produce a distinct key.
    core::RunSpec mech = spec;
    mech.mechanism = core::Mechanism::MpPolling;
    EXPECT_NE(k, ResultCache::key(mech, "stream/s=1"));

    core::RunSpec machine = spec;
    machine.machine.procMhz = 40.0;
    EXPECT_NE(k, ResultCache::key(machine, "stream/s=1"));

    core::RunSpec cross = spec;
    cross.crossTraffic.bytesPerCycle = 9.0;
    EXPECT_NE(k, ResultCache::key(cross, "stream/s=1"));

    EXPECT_NE(k, ResultCache::key(spec, "stream/s=2"));

    // The config display name is not a simulation parameter.
    core::RunSpec renamed = spec;
    renamed.machine.name = "other";
    EXPECT_EQ(k, ResultCache::key(renamed, "stream/s=1"));
}

TEST(ResultCache, EmptyAppKeyDisablesCaching)
{
    EXPECT_EQ(ResultCache::key(baseSpec(), ""), "");
    ResultCache cache;
    EXPECT_FALSE(cache.lookup("").has_value());
    cache.store("", sampleResult());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, MemoryHitReturnsStoredResult)
{
    ResultCache cache;
    const std::string k = ResultCache::key(baseSpec(), "stream/s=1");
    EXPECT_FALSE(cache.lookup(k).has_value());
    EXPECT_EQ(cache.misses(), 1u);

    const core::RunResult r = sampleResult();
    cache.store(k, r);
    const auto hit = cache.lookup(k);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(hit->runtimeCycles, r.runtimeCycles);
    EXPECT_EQ(hit->checksum, r.checksum);
    EXPECT_EQ(hit->simEvents, r.simEvents);
}

TEST(ResultCache, DiskEntriesSurviveAcrossInstances)
{
    TempDir tmp;
    const std::string k = ResultCache::key(baseSpec(), "stream/s=1");
    const core::RunResult r = sampleResult();
    {
        ResultCache writer(tmp.path.string());
        writer.store(k, r);
    }
    // One JSON file per key on disk.
    int files = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(tmp.path)) {
        EXPECT_EQ(e.path().extension(), ".json");
        ++files;
    }
    EXPECT_EQ(files, 1);

    ResultCache reader(tmp.path.string());
    const auto hit = reader.lookup(k);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(reader.hits(), 1u);
    EXPECT_EQ(hit->runtimeCycles, r.runtimeCycles);
    EXPECT_EQ(hit->checksum, r.checksum);
    for (std::size_t i = 0; i < r.breakdown.ticks.size(); ++i)
        EXPECT_EQ(hit->breakdown.ticks[i], r.breakdown.ticks[i]);
}

TEST(ResultCache, CorruptDiskEntryIsAMiss)
{
    TempDir tmp;
    const std::string k = ResultCache::key(baseSpec(), "stream/s=1");
    {
        ResultCache writer(tmp.path.string());
        writer.store(k, sampleResult());
    }
    for (const auto &e :
         std::filesystem::directory_iterator(tmp.path)) {
        std::ofstream(e.path()) << "{ not json";
    }
    ResultCache reader(tmp.path.string());
    EXPECT_FALSE(reader.lookup(k).has_value());
    EXPECT_EQ(reader.misses(), 1u);
}

TEST(ResultCache, TruncatedDiskEntryIsAMiss)
{
    // A crash mid-write (or a torn copy) leaves a prefix of valid
    // JSON; the loader must treat it as a miss, not crash or return a
    // partial result.
    TempDir tmp;
    const std::string k = ResultCache::key(baseSpec(), "stream/s=1");
    {
        ResultCache writer(tmp.path.string());
        writer.store(k, sampleResult());
    }
    for (const auto &e :
         std::filesystem::directory_iterator(tmp.path)) {
        std::ifstream in(e.path());
        std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        ASSERT_GT(body.size(), 32u);
        std::ofstream(e.path()) << body.substr(0, body.size() / 2);
    }
    ResultCache reader(tmp.path.string());
    EXPECT_FALSE(reader.lookup(k).has_value());
    EXPECT_EQ(reader.misses(), 1u);
}

TEST(ResultCache, MismatchedStoredKeyIsAMiss)
{
    // A file landing under the wrong hash name (filename collision or
    // manual tampering) must be rejected by the embedded full key and
    // recomputed, never returned as a stale hit for the other key.
    TempDir tmp;
    const std::string k1 = ResultCache::key(baseSpec(), "stream/s=1");
    const std::string k2 = ResultCache::key(baseSpec(), "stream/s=2");
    ResultCache writer(tmp.path.string());
    writer.store(k1, sampleResult());

    // Masquerade k1's entry as k2's by renaming it to k2's hash name.
    std::filesystem::path k1file, k2file;
    for (const auto &e :
         std::filesystem::directory_iterator(tmp.path))
        k1file = e.path();
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(fnv1a64(k2)));
    k2file = tmp.path / name;
    std::filesystem::rename(k1file, k2file);

    ResultCache reader(tmp.path.string());
    EXPECT_FALSE(reader.lookup(k2).has_value());
    EXPECT_EQ(reader.misses(), 1u);
}

TEST(ResultCache, StrayTmpFilesAreIgnored)
{
    // Leftover write-then-rename temporaries must not shadow or break
    // the committed entry.
    TempDir tmp;
    const std::string k = ResultCache::key(baseSpec(), "stream/s=1");
    const core::RunResult r = sampleResult();
    {
        ResultCache writer(tmp.path.string());
        writer.store(k, r);
    }
    std::ofstream(tmp.path / "deadbeef.json.tmp.0") << "{ torn";
    ResultCache reader(tmp.path.string());
    const auto hit = reader.lookup(k);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->runtimeCycles, r.runtimeCycles);
}

TEST(ResultCache, StoreNeverWritesThroughAnotherWritersTmpFile)
{
    // Another process's in-flight write of the same key: store() must
    // use a temp name of its own, not truncate and rename this one.
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    const std::string k = ResultCache::key(baseSpec(), "stream/s=1");
    const core::RunResult r = sampleResult();
    ResultCache writer(tmp.path.string());
    const std::string foreign = writer.entryPath(k) + ".tmp.0";
    std::ofstream(foreign) << "sentinel";

    writer.store(k, r);

    std::ifstream in(foreign);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(body, "sentinel");
    ResultCache reader(tmp.path.string());
    const auto hit = reader.lookup(k);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->runtimeCycles, r.runtimeCycles);
}

TEST(ResultCache, PerturbedSpecsAreNeverCached)
{
    // Perturbed schedules are seed-dependent explorations; caching
    // them would poison unperturbed sweeps and vice versa.
    core::RunSpec spec = baseSpec();
    spec.perturb.tieBreak = true;
    EXPECT_EQ(ResultCache::key(spec, "stream/s=1"), "");

    core::RunSpec jitter = baseSpec();
    jitter.perturb.hopJitterFrac = 0.25;
    EXPECT_EQ(ResultCache::key(jitter, "stream/s=1"), "");

    // An all-defaults PerturbConfig (seed set but nothing enabled) is
    // not a perturbation and must keep the normal key.
    core::RunSpec inert = baseSpec();
    inert.perturb.seed = 99;
    EXPECT_EQ(ResultCache::key(inert, "stream/s=1"),
              ResultCache::key(baseSpec(), "stream/s=1"));
}

TEST(ResultCache, Fnv1aMatchesReferenceVectors)
{
    // Standard FNV-1a 64 test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

} // namespace
} // namespace alewife::exp
