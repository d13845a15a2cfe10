/**
 * @file
 * Snapshot format tests: hex codec edge values, capture-point
 * accessors, and per-section digests.
 */

#include <gtest/gtest.h>

#include "apps/stream.hh"
#include "ckpt/driver.hh"
#include "ckpt/snapshot.hh"
#include "core/runner.hh"
#include "exp/result_cache.hh"
#include "exp/serialize.hh"

namespace alewife::ckpt {
namespace {

core::AppFactory
tinyStream()
{
    apps::Stream::Params p;
    p.valuesPerIter = 16;
    p.iters = 2;
    return apps::Stream::factory(p);
}

/** Capture a snapshot mid-run of the tiny stream workload. */
Snapshot
captureMidStream(std::uint64_t at = 400)
{
    ForkPointDriver fork(at);
    core::RunSpec spec;
    core::runApp(tinyStream(), spec, true, nullptr, &fork);
    EXPECT_TRUE(fork.snapshot().has_value());
    return *fork.snapshot();
}

TEST(HexCodec, RoundTripsEdgeValues)
{
    const std::uint64_t values[] = {
        0,
        1,
        (1ULL << 53) + 1, // would round as a JSON double
        0x00ffee00ddcc0011ULL,
        ~0ULL,
    };
    for (std::uint64_t v : values)
        EXPECT_EQ(parseHexU64(hexU64(v)), v);
}

TEST(HexCodec, IsFixedWidthLowercase)
{
    EXPECT_EQ(hexU64(0), "0x0000000000000000");
    EXPECT_EQ(hexU64(0xABCDULL), "0x000000000000abcd");
    EXPECT_EQ(hexU64(~0ULL), "0xffffffffffffffff");
}

TEST(Snapshot, AccessorsMatchCapturePoint)
{
    const Snapshot s = captureMidStream(400);
    EXPECT_EQ(s.eventsExecuted(), 400u);
    EXPECT_GT(s.now(), Tick{0});
    EXPECT_EQ(s.configKey(), MachineConfig{}.canonicalKey());
}

TEST(Snapshot, DigestsCoverEverySectionAndMatch)
{
    const Snapshot s = captureMidStream();
    const char *sections[] = {"config", "kernel", "events",  "mesh",
                              "memory", "caches", "pfb",     "coh",
                              "procs",  "sync",   "ni",      "cross",
                              "counters"};
    for (const char *sec : sections) {
        const exp::Json *j = s.doc.find(sec);
        ASSERT_NE(j, nullptr) << "missing section " << sec;
        EXPECT_EQ(s.sectionDigest(sec), exp::fnv1a64(j->dump()))
            << "digest mismatch for section " << sec;
    }
}

TEST(ResultCacheKey, IncludesBothSchemaVersions)
{
    // Satellite of the checkpoint work: cached sweep results must be
    // invalidated when either serialization format changes, so both
    // versions are spelled into every cache key.
    core::RunSpec spec;
    const std::string key = exp::ResultCache::key(spec, "stream/t=1");
    ASSERT_FALSE(key.empty());
    const std::string want = "rs" + std::to_string(exp::kResultSchemaVersion)
                             + ".cs" + std::to_string(kCkptSchemaVersion)
                             + "|";
    EXPECT_EQ(key.rfind(want, 0), 0u)
        << "key does not start with schema versions: " << key;
}

} // namespace
} // namespace alewife::ckpt
