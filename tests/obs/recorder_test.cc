/**
 * @file
 * Recorder integration tests on real runs, plus FlightRecorder units.
 *
 * The load-bearing one is ObservationNeverChangesTheResult: a fully
 * instrumented run (timeline + metrics + interval profile + flight
 * ring), and an audited run, must each be bit-identical to a detached
 * run — same runtime, same checksum, same event count, same volume,
 * breakdown and CMMU counters. That is the contract that lets obs and
 * audit settings stay out of result-cache keys.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "apps/stream.hh"
#include "core/runner.hh"
#include "exp/json.hh"
#include "obs/flight.hh"
#include "obs/options.hh"
#include "sim/stats.hh"

namespace alewife::obs {
namespace {

core::AppFactory
tinyStream()
{
    apps::Stream::Params p;
    p.valuesPerIter = 24;
    p.iters = 3;
    return apps::Stream::factory(p);
}

exp::Json
parseFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    exp::Json doc = exp::Json::parse(ss.str(), &err);
    EXPECT_FALSE(doc.isNull()) << path << ": " << err;
    return doc;
}

TEST(Recorder, ObservationNeverChangesTheResult)
{
    core::RunSpec plain;
    const auto detached = core::runApp(tinyStream(), plain);

    core::RunSpec observed;
    observed.obs.traceOut = testing::TempDir() + "obs-det-trace.json";
    observed.obs.metricsOut = testing::TempDir() + "obs-det-metrics.json";
    observed.obs.intervalCycles = 100;
    observed.obs.flightEvents = 256;

    // The invariant auditor is an attached observer too.
    core::RunSpec audited;
    audited.audit = true;

    EXPECT_TRUE(detached.verified);
    for (const core::RunSpec &spec : {observed, audited}) {
        SCOPED_TRACE(spec.audit ? "audited" : "observed");
        const auto attached = core::runApp(tinyStream(), spec);
        EXPECT_EQ(detached.runtimeCycles, attached.runtimeCycles);
        EXPECT_EQ(detached.checksum, attached.checksum);
        EXPECT_EQ(detached.simEvents, attached.simEvents);
        EXPECT_EQ(detached.volume.total(), attached.volume.total());
        EXPECT_TRUE(attached.verified);
        for (std::size_t i = 0; i < detached.breakdown.ticks.size(); ++i)
            EXPECT_EQ(detached.breakdown.ticks[i],
                      attached.breakdown.ticks[i]);
        for (const auto &f : machineCounterFields())
            EXPECT_EQ(detached.counters.*(f.member),
                      attached.counters.*(f.member))
                << "counter " << f.name;
    }
}

TEST(Recorder, MetricsFileIsSchemaVersionedAndPopulated)
{
    core::RunSpec spec;
    spec.obs.metricsOut = testing::TempDir() + "obs-metrics.json";
    spec.obs.intervalCycles = 100;
    const auto r = core::runApp(tinyStream(), spec);
    ASSERT_TRUE(r.verified);

    const exp::Json doc = parseFile(spec.obs.metricsOut);
    EXPECT_EQ(doc.at("schema").asString(), "alewife-metrics");
    EXPECT_EQ(doc.at("version").asU64(), 1u);

    // The run moved real packets; the registry must agree.
    const exp::Json &ctrs = doc.at("counters");
    EXPECT_GT(ctrs.at("net.packets_injected").at("total").asU64(), 0u);
    EXPECT_EQ(ctrs.at("net.packets_injected").at("total").asU64(),
              ctrs.at("net.packets_delivered").at("total").asU64());
    EXPECT_EQ(ctrs.at("cmmu.packetsInjected").at("total").asU64(),
              r.counters.packetsInjected);

    // Histograms observed something and link stats cover the mesh.
    EXPECT_GT(doc.at("histograms")
                  .at("packet_transit_cycles")
                  .at("count")
                  .asU64(),
              0u);
    EXPECT_GT(doc.at("links").size(), 0u);

    // Interval profiling sampled the Figure-4 breakdown over time.
    ASSERT_GT(doc.at("intervals").size(), 0u);
    const exp::Json &iv = doc.at("intervals").at(0);
    EXPECT_TRUE(iv.has("cycle"));
    EXPECT_TRUE(iv.at("breakdownCycles").isObject());
}

TEST(Recorder, TraceFileLoadsAndAsyncPairsMatch)
{
    core::RunSpec spec;
    spec.obs.traceOut = testing::TempDir() + "obs-trace.json";
    const auto r = core::runApp(tinyStream(), spec);
    ASSERT_TRUE(r.verified);

    const exp::Json doc = parseFile(spec.obs.traceOut);
    const exp::Json &evs = doc.at("traceEvents");
    ASSERT_GT(evs.size(), 0u);

    std::map<std::pair<std::string, std::uint64_t>, int> open;
    std::size_t slices = 0, metas = 0;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const exp::Json &e = evs.at(i);
        const std::string ph = e.at("ph").asString();
        if (ph == "X") {
            ++slices;
            EXPECT_TRUE(e.has("dur"));
        } else if (ph == "M") {
            ++metas;
        } else if (ph == "b" || ph == "e") {
            const auto k = std::make_pair(e.at("cat").asString(),
                                          e.at("id").asU64());
            open[k] += ph == "b" ? 1 : -1;
        }
    }
    EXPECT_GT(slices, 0u) << "no processor-phase slices in the trace";
    EXPECT_GT(metas, 0u) << "no track-name metadata in the trace";
    for (const auto &[k, n] : open)
        EXPECT_EQ(n, 0) << "unmatched async pair cat=" << k.first
                        << " id=" << k.second;
}

TEST(Flight, RingKeepsTheMostRecentEvents)
{
    FlightRecorder f(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        f.push(i * 100, FlightRecorder::Kind::ProtoSend, 1, i);
    EXPECT_EQ(f.recorded(), 10u);
    EXPECT_EQ(f.size(), 4u);

    std::ostringstream os;
    f.dump(os);
    const std::string text = os.str();
    // Oldest retained first: events 6..9 survive, 0..5 were overwritten.
    EXPECT_NE(text.find("proto-send"), std::string::npos);
    EXPECT_LT(text.find("0x6"), text.find("0x9"));
    EXPECT_EQ(text.find("0x5"), std::string::npos);
}

TEST(Flight, DumpToFileWritesTheWindow)
{
    FlightRecorder f(8);
    f.push(1234, FlightRecorder::Kind::CacheInvalidate, 3, 0xabcd, 1);
    const std::string path = testing::TempDir() + "obs-flight.dump";
    f.dumpToFile(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("cache-inval"), std::string::npos);
    EXPECT_NE(ss.str().find("0xabcd"), std::string::npos);
}

} // namespace
} // namespace alewife::obs
