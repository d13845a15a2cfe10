/**
 * @file
 * Graceful-degradation edges of the sweep stack: the result cache
 * corrupted, unwritable or vanishing — every case must complete the
 * sweep with a clear warning, never abort it.
 *
 * Note on "unwritable": these tests run as root in CI, where mode
 * bits are bypassed, so unwritable paths are made by putting a
 * regular file where a parent directory would have to be.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "exp/farm.hh"
#include "exp/result_cache.hh"
#include "exp/serialize.hh"
#include "exp/sweep_engine.hh"

namespace alewife::exp {
namespace {

namespace fs = std::filesystem;

struct TempDir
{
    fs::path path;

    TempDir()
    {
        static int n = 0;
        path = fs::temp_directory_path()
               / ("alewife-degradation-test-"
                  + std::to_string(::getpid()) + "-"
                  + std::to_string(n++));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

FarmWorkload
streamWorkload()
{
    FarmWorkload w;
    w.app = "stream";
    w.scale = 0.25;
    return w;
}

std::vector<Job>
streamBatch(const FarmWorkload &w)
{
    std::vector<Job> batch(1);
    batch[0].app = makeWorkloadFactory(w);
    batch[0].spec.mechanism = core::Mechanism::SharedMemory;
    batch[0].appKey = w.appKey();
    return batch;
}

core::RunResult
referenceRun(const FarmWorkload &w)
{
    core::RunSpec spec;
    spec.mechanism = core::Mechanism::SharedMemory;
    return core::runApp(makeWorkloadFactory(w), spec);
}

TEST(SweepDegradation, UnwritableCacheDirWarnsAndCompletes)
{
    TempDir tmp;
    std::ofstream(tmp.path / "blocker") << "not a directory";
    const FarmWorkload w = streamWorkload();

    ResultCache cache((tmp.path / "blocker" / "cache").string());
    EngineOptions opts;
    opts.cache = &cache;
    opts.appKey = w.appKey();
    SweepEngine engine(opts);

    const auto results = engine.run(streamBatch(w));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].verified);
}

TEST(SweepDegradation, CacheDirVanishingBetweenBatchesRecovers)
{
    TempDir tmp;
    const fs::path cacheDir = tmp.path / "cache";
    const FarmWorkload w = streamWorkload();

    ResultCache cache(cacheDir.string());
    EngineOptions opts;
    opts.cache = &cache;
    opts.appKey = w.appKey();
    SweepEngine engine(opts);

    const auto first = engine.run(streamBatch(w));
    ASSERT_EQ(first.size(), 1u);
    ASSERT_TRUE(fs::exists(cacheDir));

    // The cache directory vanishes mid-sweep (rm -rf, NFS blip). The
    // next batch must recreate it and complete — the in-memory layer
    // still answers, and persist() re-creates the directory.
    fs::remove_all(cacheDir);
    const auto second = engine.run(streamBatch(w));
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(resultToJson(second[0]).dump(0),
              resultToJson(first[0]).dump(0));
}

TEST(CacheQuarantine, CorruptEntryIsRenamedBadAndRecomputed)
{
    TempDir tmp;
    const FarmWorkload w = streamWorkload();
    core::RunSpec spec;
    spec.mechanism = core::Mechanism::SharedMemory;
    const std::string key = ResultCache::key(spec, w.appKey());

    std::string entry;
    {
        ResultCache writer(tmp.path.string());
        writer.store(key, referenceRun(w));
        entry = writer.entryPath(key);
    }
    ASSERT_FALSE(entry.empty());

    // Tear the entry in half: parseable prefix, invalid document.
    {
        std::ifstream in(entry);
        std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::ofstream(entry, std::ios::trunc)
            << body.substr(0, body.size() / 2);
    }

    ResultCache reader(tmp.path.string());
    EXPECT_FALSE(reader.lookup(key).has_value());
    EXPECT_EQ(reader.quarantined(), 1u);
    EXPECT_FALSE(fs::exists(entry));
    EXPECT_TRUE(fs::exists(entry + ".bad"));

    // The slot is free again: a recompute stores and reads back fine.
    reader.store(key, referenceRun(w));
    EXPECT_TRUE(reader.lookup(key).has_value());
}

TEST(CacheQuarantine, WellFormedForeignEntryIsAMissNotCorruption)
{
    // Entries with a wrong schema tag or a mismatched key are not
    // corrupt — just not ours. They must be left in place.
    TempDir tmp;
    const FarmWorkload w = streamWorkload();
    core::RunSpec spec;
    spec.mechanism = core::Mechanism::SharedMemory;
    const std::string key = ResultCache::key(spec, w.appKey());

    std::string entry;
    {
        ResultCache writer(tmp.path.string());
        writer.store(key, referenceRun(w));
        entry = writer.entryPath(key);
    }
    // Rewrite the entry with a foreign schema tag.
    std::ofstream(entry, std::ios::trunc)
        << "{\"schema\": \"somebody-elses\", \"version\": 1, "
           "\"key\": \"x\", \"result\": {}}";

    ResultCache reader(tmp.path.string());
    EXPECT_FALSE(reader.lookup(key).has_value());
    EXPECT_EQ(reader.quarantined(), 0u);
    EXPECT_TRUE(fs::exists(entry));
    EXPECT_FALSE(fs::exists(entry + ".bad"));
}

TEST(CacheQuarantine, MissingResultFieldIsQuarantined)
{
    TempDir tmp;
    const FarmWorkload w = streamWorkload();
    core::RunSpec spec;
    spec.mechanism = core::Mechanism::SharedMemory;
    const std::string key = ResultCache::key(spec, w.appKey());

    std::string entry;
    {
        ResultCache writer(tmp.path.string());
        writer.store(key, referenceRun(w));
        entry = writer.entryPath(key);
    }
    // Valid JSON object, but the entry fields are gone.
    std::ofstream(entry, std::ios::trunc) << "{\"oops\": true}";

    ResultCache reader(tmp.path.string());
    EXPECT_FALSE(reader.lookup(key).has_value());
    EXPECT_EQ(reader.quarantined(), 1u);
    EXPECT_TRUE(fs::exists(entry + ".bad"));
}

} // namespace
} // namespace alewife::exp
