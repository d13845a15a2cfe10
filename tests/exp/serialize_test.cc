/**
 * @file
 * Tests for structured result emission: JSON round trip, schema
 * versioning, and CSV shape.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/stream.hh"
#include "core/experiments.hh"
#include "exp/serialize.hh"

namespace alewife::exp {
namespace {

core::RunResult
sampleResult()
{
    apps::Stream::Params p;
    p.valuesPerIter = 16;
    p.iters = 2;
    core::RunSpec spec;
    spec.mechanism = core::Mechanism::MpInterrupt;
    return core::runApp(apps::Stream::factory(p), spec);
}

TEST(Serialize, ResultRoundTripsBitExactly)
{
    const core::RunResult r = sampleResult();
    std::string err;
    const Json j = Json::parse(resultToJson(r).dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    const core::RunResult back = resultFromJson(j);

    EXPECT_EQ(back.app, r.app);
    EXPECT_EQ(back.mechanism, r.mechanism);
    EXPECT_EQ(back.runtimeCycles, r.runtimeCycles);
    EXPECT_EQ(back.checksum, r.checksum);
    EXPECT_EQ(back.reference, r.reference);
    EXPECT_EQ(back.verified, r.verified);
    EXPECT_EQ(back.simEvents, r.simEvents);
    for (std::size_t i = 0; i < r.breakdown.ticks.size(); ++i)
        EXPECT_EQ(back.breakdown.ticks[i], r.breakdown.ticks[i]);
    for (std::size_t i = 0; i < r.volume.bytes.size(); ++i)
        EXPECT_EQ(back.volume.bytes[i], r.volume.bytes[i]);
    EXPECT_EQ(back.counters.packetsInjected,
              r.counters.packetsInjected);
    EXPECT_EQ(back.counters.cacheHits, r.counters.cacheHits);
    EXPECT_EQ(back.counters.interruptsTaken,
              r.counters.interruptsTaken);
    EXPECT_EQ(back.counters.niQueueFullStalls,
              r.counters.niQueueFullStalls);
}

TEST(Serialize, CheckedDecodeNamesTheFirstBadField)
{
    // Every way a stored result can be malformed fails the decode with
    // a reason; none may reach a fatal accessor.
    const Json good = resultToJson(sampleResult());
    std::string err;
    ASSERT_TRUE(resultFromJson(good, &err).has_value()) << err;

    auto decodeWith = [&](const std::string &key, Json value) {
        Json j = good;
        j.set(key, std::move(value));
        err.clear();
        EXPECT_FALSE(resultFromJson(j, &err).has_value()) << key;
        return err;
    };
    EXPECT_NE(decodeWith("mechanism", "SMX").find("SMX"),
              std::string::npos);
    EXPECT_NE(decodeWith("verified", 1).find("verified"),
              std::string::npos);
    EXPECT_NE(decodeWith("simEvents", -1).find("simEvents"),
              std::string::npos);
    Json counters = good.at("counters");
    counters.set("cacheHits", "many");
    EXPECT_NE(decodeWith("counters", counters).find("cacheHits"),
              std::string::npos);
    EXPECT_FALSE(resultFromJson(Json(), &err).has_value());
}

TEST(Serialize, BatchCarriesSchemaHeader)
{
    const Json j = batchToJson("stream", {sampleResult()});
    EXPECT_EQ(j.at("schema").asString(), "alewife-results");
    EXPECT_EQ(static_cast<int>(j.at("version").asDouble()),
              kResultSchemaVersion);
    EXPECT_EQ(j.at("kind").asString(), "batch");
    EXPECT_EQ(j.at("results").size(), 1u);
}

TEST(Serialize, SeriesJsonHasOneEntryPerMechanismAndPoint)
{
    apps::Stream::Params p;
    p.valuesPerIter = 16;
    p.iters = 2;
    const auto series = core::bisectionSweep(
        apps::Stream::factory(p), MachineConfig{},
        {core::Mechanism::SharedMemory, core::Mechanism::MpInterrupt},
        {18.0, 9.0});
    const Json j = seriesToJson("t", "bisection", series);
    EXPECT_EQ(j.at("kind").asString(), "sweep");
    ASSERT_EQ(j.at("series").size(), 2u);
    const Json &first = j.at("series").at(std::size_t{0});
    EXPECT_EQ(first.at("mechanism").asString(), "SM");
    ASSERT_EQ(first.at("points").size(), 2u);
    EXPECT_EQ(first.at("points").at(std::size_t{0}).at("x").asDouble(),
              18.0);
}

TEST(Serialize, CsvHasHeaderAndOneRowPerResult)
{
    std::ostringstream os;
    writeBatchCsv(os, {sampleResult(), sampleResult()});
    const std::string text = os.str();
    int lines = 0;
    for (char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, 3); // header + 2 rows
    EXPECT_NE(text.find("app,mechanism,runtimeCycles"),
              std::string::npos);
    EXPECT_NE(text.find("stream,MP-I"), std::string::npos);
    EXPECT_NE(text.find("cycles:compute"), std::string::npos);
    EXPECT_NE(text.find("bytes:data"), std::string::npos);
}

} // namespace
} // namespace alewife::exp
