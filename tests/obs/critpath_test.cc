/**
 * @file
 * Critical-path recorder + predictor goldens.
 *
 * Three contracts are pinned here:
 *  - capture is free of side effects and deterministic: results are
 *    bit-identical with the recorder attached or detached, and the
 *    graph digest is bit-identical run-to-run and with/without an
 *    obs::Recorder attached alongside;
 *  - identity replay is exact: re-costing the graph under its own
 *    configuration reproduces the measured runtime bit-for-bit
 *    (Predictor::selfCheckExact), including a graph app whose
 *    message-passing runs stall on a full NI input queue;
 *  - prediction is useful: on mini fig08 (bisection) and fig09 (clock)
 *    sweeps the predicted curves track the measured ones within a
 *    MAPE tolerance, for both a shared-memory and a message-passing
 *    mechanism, from ONE instrumented run per mechanism; and so do
 *    R-MAT graph apps at ext3_graph_sweep's 10x hop latency.
 *
 * Plus the delay-injection knob: disabled is bit-identical to no knob
 * at all, enabled produces a propagation/decay report.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "apps/graph/catalog.hh"
#include "apps/stream.hh"
#include "core/runner.hh"
#include "obs/critpath.hh"
#include "obs/predict.hh"

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

/** R-MAT graph app @p name at test scale: 16 procs, 400 vertices. */
core::AppFactory
rmatGraph(const char *name)
{
    apps::graph::GraphAppParams p;
    p.graph.family = workload::GraphFamily::RMat;
    p.graph.vertices = 400;
    p.graph.avgDegree = 5;
    p.graph.nprocs = 16;
    p.graph.seed = 11;
    p.iters = 2;
    return apps::graph::makeApp(name, p);
}

/** A 4x4 machine (rmatGraph's partitioning) running @p mech. */
core::RunSpec
graphSpec(core::Mechanism mech)
{
    core::RunSpec spec;
    spec.machine.meshX = 4;
    spec.machine.meshY = 4;
    spec.mechanism = mech;
    return spec;
}

/** One instrumented run; the graph lands in @p rec. */
core::RunResult
capture(CritPathRecorder &rec, const core::RunSpec &spec,
        const core::AppFactory &app = tinyStream())
{
    return core::runApp(app, spec, /*verify_fatal=*/true,
                        /*auditor=*/nullptr, /*driver=*/nullptr, &rec);
}

double
mape(const std::vector<double> &measured,
     const std::vector<double> &predicted)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < measured.size(); ++i)
        sum += std::abs(predicted[i] - measured[i]) / measured[i];
    return 100.0 * sum / measured.size();
}

TEST(CritPath, AttachingTheRecorderNeverChangesTheResult)
{
    core::RunSpec spec;
    const auto detached = core::runApp(tinyStream(), spec);

    CritPathRecorder rec;
    const auto attached = capture(rec, spec);

    EXPECT_EQ(detached.runtimeCycles, attached.runtimeCycles);
    EXPECT_EQ(detached.checksum, attached.checksum);
    EXPECT_EQ(detached.simEvents, attached.simEvents);
    EXPECT_TRUE(attached.verified);

    // The graph saw the whole run.
    EXPECT_EQ(rec.graph().eventsExecuted, attached.simEvents);
    EXPECT_GT(rec.graph().size(), 0u);
    EXPECT_FALSE(rec.graph().netEdges.empty());
    EXPECT_FALSE(rec.graph().finish.empty());
}

TEST(CritPath, GraphIsBitIdenticalRunToRunAndUnderObservation)
{
    core::RunSpec spec;
    CritPathRecorder a, b;
    capture(a, spec);
    capture(b, spec);
    EXPECT_EQ(a.graph().digest(), b.graph().digest());
    EXPECT_EQ(a.graph().size(), b.graph().size());

    // An obs::Recorder attached alongside must not perturb the tree.
    core::RunSpec observed = spec;
    observed.obs.metricsOut = testing::TempDir() + "critpath-met.json";
    observed.obs.intervalCycles = 100;
    observed.obs.flightEvents = 128;
    CritPathRecorder c;
    capture(c, observed);
    EXPECT_EQ(a.graph().digest(), c.graph().digest());
}

TEST(CritPath, IdentityReplayReproducesTheMeasuredRunBitExactly)
{
    const auto check = [](const char *what, const core::AppFactory &app,
                          const core::RunSpec &spec) {
        CritPathRecorder rec;
        const auto r = capture(rec, spec, app);

        Predictor p(rec.graph());
        EXPECT_TRUE(p.selfCheckExact())
            << what << " " << core::mechanismName(spec.mechanism);
        EXPECT_EQ(p.predictRuntimeCycles(p.baseTarget()),
                  r.runtimeCycles)
            << what << " " << core::mechanismName(spec.mechanism);
    };
    for (const auto mech :
         {core::Mechanism::SharedMemory, core::Mechanism::MpInterrupt,
          core::Mechanism::BulkTransfer}) {
        core::RunSpec spec;
        spec.mechanism = mech;
        check("stream", tinyStream(), spec);
    }
    // Under MP-P this run stalls on a full NI input queue about 200,000
    // times; every retry must replay exactly.
    for (const auto mech : core::allMechanisms())
        check("pagerank-push", rmatGraph("pagerank-push"),
              graphSpec(mech));
}

TEST(CritPath, BreakdownAndSlackCoverTheRun)
{
    core::RunSpec spec;
    CritPathRecorder rec;
    const auto r = capture(rec, spec);

    Predictor p(rec.graph());
    const CritPathBreakdown b = p.breakdown(p.baseTarget());
    EXPECT_NEAR(b.totalCycles, r.runtimeCycles,
                1e-9 * r.runtimeCycles);
    const double parts = b.computeCycles + b.protocolCycles
                         + b.messageCycles + b.retryCycles
                         + b.netFixedCycles + b.netHopCycles
                         + b.netSerCycles + b.netQueueCycles
                         + b.crossTrafficCycles + b.otherCycles;
    EXPECT_NEAR(parts, b.totalCycles, 1e-6 * b.totalCycles);
    EXPECT_GT(b.pathEvents, 0u);
    EXPECT_GT(b.computeCycles, 0.0);
}

TEST(CritPath, PredictsTheBisectionSweepWithinTolerance)
{
    // Mini fig08: one instrumented base run per mechanism predicts the
    // runtime under injected cross traffic (effective bisections 10
    // and 5 bytes/cycle against the native 18).
    const std::vector<double> bisections = {10.0, 5.0};
    for (const auto mech :
         {core::Mechanism::SharedMemory, core::Mechanism::MpInterrupt}) {
        core::RunSpec base;
        base.mechanism = mech;
        CritPathRecorder rec;
        capture(rec, base);
        Predictor p(rec.graph());
        const double native = base.machine.bisectionBytesPerCycle();

        std::vector<double> measured, predicted;
        for (const double b : bisections) {
            core::RunSpec at = base;
            at.crossTraffic.bytesPerCycle = native - b;
            at.crossTraffic.messageBytes = 64;
            measured.push_back(
                core::runApp(tinyStream(), at).runtimeCycles);

            PredictTarget t;
            t.machine = base.machine;
            t.crossBytesPerCycle = native - b;
            t.crossMessageBytes = 64;
            predicted.push_back(p.predictRuntimeCycles(t));
        }
        const double err = mape(measured, predicted);
        RecordProperty("mape_pct", std::to_string(err));
        EXPECT_LT(err, 15.0)
            << core::mechanismName(mech) << " measured={"
            << measured[0] << "," << measured[1] << "} predicted={"
            << predicted[0] << "," << predicted[1] << "}";
    }
}

TEST(CritPath, PredictsTheClockSweepWithinTolerance)
{
    // Mini fig09: predict the runtime (in cycles of the new clock) as
    // the processor speeds up against the fixed-wall-clock network.
    const std::vector<double> mhzs = {14.0, 40.0};
    for (const auto mech :
         {core::Mechanism::SharedMemory, core::Mechanism::MpInterrupt}) {
        core::RunSpec base;
        base.mechanism = mech;
        CritPathRecorder rec;
        capture(rec, base);
        Predictor p(rec.graph());

        std::vector<double> measured, predicted;
        for (const double mhz : mhzs) {
            core::RunSpec at = base;
            at.machine.procMhz = mhz;
            measured.push_back(
                core::runApp(tinyStream(), at).runtimeCycles);

            PredictTarget t;
            t.machine = base.machine;
            t.machine.procMhz = mhz;
            predicted.push_back(p.predictRuntimeCycles(t));
        }
        const double err = mape(measured, predicted);
        RecordProperty("mape_pct", std::to_string(err));
        EXPECT_LT(err, 15.0)
            << core::mechanismName(mech) << " measured={"
            << measured[0] << "," << measured[1] << "} predicted={"
            << predicted[0] << "," << predicted[1] << "}";
    }
}

TEST(CritPath, PredictsTenfoldHopLatencyOnGraphAppsWithinTolerance)
{
    // ext3_graph_sweep's latency variant: one capture per mechanism at
    // the base configuration predicts the run at 10x hop latency.
    for (const char *name : {"bfs", "pagerank-push"}) {
        const auto app = rmatGraph(name);
        std::vector<double> measured, predicted;
        for (const auto mech : core::allMechanisms()) {
            const core::RunSpec base = graphSpec(mech);
            CritPathRecorder rec;
            capture(rec, base, app);
            Predictor p(rec.graph());

            core::RunSpec at = base;
            at.machine.hopNs *= 10.0;
            measured.push_back(core::runApp(app, at).runtimeCycles);

            PredictTarget t = p.baseTarget();
            t.machine.hopNs = at.machine.hopNs;
            predicted.push_back(p.predictRuntimeCycles(t));
        }
        const double err = mape(measured, predicted);
        RecordProperty(std::string("mape_pct_") + name,
                       std::to_string(err));
        EXPECT_LT(err, 15.0) << name;
    }
}

TEST(CritPath, DisabledDelayInjectionIsBitIdenticalToNoKnob)
{
    core::RunSpec plain;
    const auto a = core::runApp(tinyStream(), plain);

    // node set but zero stall => disabled => schedules nothing.
    core::RunSpec off = plain;
    off.delay.node = 3;
    off.delay.atCycles = 100.0;
    off.delay.stallCycles = 0.0;
    ASSERT_FALSE(off.delay.enabled());
    const auto b = core::runApp(tinyStream(), off);

    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.simEvents, b.simEvents);
}

TEST(CritPath, DelayInjectionPropagatesAndDecays)
{
    core::RunSpec base;
    CritPathRecorder baseRec;
    const auto r0 = capture(baseRec, base);

    // The stall must exceed the node's barrier slack to propagate; a
    // small stall is (correctly) absorbed without moving the finish.
    core::RunSpec injected = base;
    injected.delay.node = 0;
    injected.delay.atCycles = 50.0;
    injected.delay.stallCycles = 4000.0;
    CritPathRecorder injRec;
    const auto r1 = capture(injRec, injected);

    // The stall costs something, bounded by the stall itself plus
    // secondary queueing.
    EXPECT_GT(r1.runtimeCycles, r0.runtimeCycles);

    const InjectionReport rep = compareInjectedRuns(
        baseRec.graph(), injRec.graph(), injected.delay.node);
    EXPECT_EQ(rep.injectNode, 0);
    EXPECT_NEAR(rep.finishShiftCycles,
                r1.runtimeCycles - r0.runtimeCycles, 1.0);
    ASSERT_EQ(rep.nodes.size(),
              static_cast<std::size_t>(base.machine.nodes()));
    EXPECT_EQ(rep.nodes[0].hopsFromInjection, 0);
    EXPECT_GT(rep.nodesShifted, 0u);

    // The injected node itself shifted.
    EXPECT_GT(rep.nodes[0].doneShiftCycles, 0.0);
}

TEST(CritPath, PredictionIsCheaperThanSimulation)
{
    // The acceptance bar: a predicted sweep point must cost >= 10x
    // less than a simulated one. A solve is one O(events) arithmetic
    // pass over the captured tree; a simulation executes the same
    // number of events through the full machine model. Compare wall
    // time with a wide margin (the true ratio is ~100x).
    core::RunSpec spec;
    CritPathRecorder rec;
    capture(rec, spec);
    Predictor p(rec.graph());
    EXPECT_EQ(p.solveEvents(), rec.graph().size());

    const auto t0 = std::chrono::steady_clock::now();
    core::runApp(tinyStream(), spec);
    const auto t1 = std::chrono::steady_clock::now();
    double acc = 0.0;
    PredictTarget t = p.baseTarget();
    for (int i = 0; i < 10; ++i) {
        t.machine.procMhz = 20.0 + i; // defeat any caching
        acc += p.predictRuntimeCycles(t);
    }
    const auto t2 = std::chrono::steady_clock::now();
    ASSERT_GT(acc, 0.0);
    const auto simNs = (t1 - t0).count();
    const auto tenSolvesNs = (t2 - t1).count();
    EXPECT_LT(tenSolvesNs, simNs)
        << "10 solves took " << tenSolvesNs << " ns vs one sim at "
        << simNs << " ns — prediction is not >=10x cheaper";
}

} // namespace
} // namespace alewife::obs
