/**
 * @file
 * PERF — tracked performance benchmark of the simulation kernel.
 *
 * Measures raw events/sec of the EventQueue hot path (schedule / fire /
 * cancel) and wall time of a standard workload bundle (EM3D and ICCG at
 * default scale plus one Figure-8 cross-traffic column), then emits
 * schema-versioned JSON so successive PRs leave a perf trajectory in
 * BENCH_kernel.json at the repo root.
 *
 * Usage:
 *   perf_kernel [--quick] [--repeat N] [--out FILE]
 *
 *   --quick     smoke-test sizes (used by the `bench` ctest label; no
 *               timing assertions, just "completes and emits valid JSON")
 *   --repeat N  repeat each microbench N times, keep the best (default 3)
 *   --out FILE  where to write the JSON (default BENCH_kernel.json)
 *
 * Timing numbers are only comparable between Release builds; the build
 * type is recorded in the JSON, and bench/CMakeLists.txt warns when
 * benchmarks are configured without CMAKE_BUILD_TYPE=Release. Use
 * scripts/bench.sh to run the whole protocol reproducibly.
 */

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "ckpt/ckpt.hh"
#include "ckpt/restore.hh"
#include "core/runner.hh"
#include "exp/json.hh"
#include "obs/recorder.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

#if defined(__unix__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

namespace {

using namespace alewife;

double
nowSeconds()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(clk::now().time_since_epoch())
        .count();
}

/** One measured result row. */
struct Row
{
    std::string name;
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    double runtimeCycles = 0.0; ///< 0 for microbenches

    // Checkpoint rows only.
    std::uint64_t snapshotBytes = 0;
    double mbPerSec = 0.0;
    /** Simulated-cycle progress a periodic save's wall time forgoes. */
    double pauseCyclesEquiv = 0.0;

    // Critical-path analyzer rows only.
    std::uint64_t graphBytes = 0; ///< captured DepGraph footprint
    double solvesPerSec = 0.0;    ///< analytic sweep points per second
};

// ---------------------------------------------------------------------
// Event-queue microbenches. Callbacks are named function objects (not
// std::function) so the queue's small-buffer path is what is measured.
// ---------------------------------------------------------------------

/** Self-rescheduling chain: the pure schedule+fire cost. */
struct Chain
{
    EventQueue *eq;
    std::uint64_t *remaining;
    Tick stride;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        eq->schedule(eq->now() + stride, Chain{eq, remaining, stride});
    }
};

/** Chain with randomized delays: exercises heap reordering. */
struct RandomChain
{
    EventQueue *eq;
    std::uint64_t *remaining;
    Rng rng;

    void
    operator()()
    {
        if (*remaining == 0)
            return;
        --*remaining;
        const Tick d = 1 + rng.nextBounded(200);
        eq->schedule(eq->now() + d, RandomChain{eq, remaining, rng});
    }
};

struct Noop
{
    void operator()() const {}
};

/** Chain that also schedules-and-cancels a shadow event every step. */
struct CancelChain
{
    EventQueue *eq;
    std::uint64_t *remaining;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        EventHandle h = eq->schedule(eq->now() + 7, Noop{});
        h.cancel();
        eq->schedule(eq->now() + 3, CancelChain{eq, remaining});
    }
};

template <typename Seed>
Row
runMicro(const std::string &name, std::uint64_t events, int actors,
         int repeat, Seed seedOne, bool withObserver = false)
{
    Row best;
    best.name = name;
    for (int r = 0; r < repeat; ++r) {
        EventQueue eq;
        // The attached variant wires an obs::Recorder straight into
        // the queue: every fired event pays the hook dispatch. The
        // default (detached) variant is the "near-zero when off"
        // guard — its cost is the null check eq_chain has always paid.
        std::optional<obs::Recorder> rec;
        if (withObserver) {
            obs::RecorderOptions ro;
            ro.flightEvents = 4096;
            rec.emplace(ro, 1);
            eq.setAuditHooks(&*rec);
        }
        std::uint64_t remaining = events;
        for (int a = 0; a < actors; ++a)
            seedOne(eq, remaining, a);
        const double t0 = nowSeconds();
        eq.run();
        const double dt = nowSeconds() - t0;
        if (r == 0 || dt < best.wallSeconds) {
            best.events = eq.eventsExecuted();
            best.wallSeconds = dt;
        }
    }
    best.eventsPerSec =
        static_cast<double>(best.events) / best.wallSeconds;
    return best;
}

Row
runWorkload(const std::string &name, const core::AppFactory &factory,
            core::Mechanism mech, double crossBytesPerCycle)
{
    core::RunSpec spec;
    spec.mechanism = mech;
    spec.crossTraffic.bytesPerCycle = crossBytesPerCycle;
    const double t0 = nowSeconds();
    const auto res = core::runApp(factory, spec);
    Row row;
    row.name = name;
    row.wallSeconds = nowSeconds() - t0;
    row.events = res.simEvents;
    row.eventsPerSec =
        static_cast<double>(res.simEvents) / row.wallSeconds;
    row.runtimeCycles = res.runtimeCycles;
    return row;
}

// ---------------------------------------------------------------------
// Checkpoint save/restore throughput (src/ckpt/). Save = capture the
// paused machine into the snapshot document; restore = replay a fresh
// machine to the snapshot position and bit-audit it (the src/ckpt/
// restore strategy). Both are normalized by the serialized snapshot
// size, and save cost is also expressed as the simulated-cycle
// progress its pause forgoes on this workload.
// ---------------------------------------------------------------------

/** Captures repeatedly at the midpoint, keeping the best save time. */
struct CkptSaveProbe : alewife::core::RunDriver
{
    std::uint64_t at;
    int repeat;
    double bestSeconds = 0.0;
    std::optional<ckpt::Snapshot> snap;

    CkptSaveProbe(std::uint64_t at_, int repeat_)
        : at(at_), repeat(repeat_)
    {
    }

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        m.start(f);
        if (m.stepUntilEvents(at)) {
            for (int r = 0; r < repeat; ++r) {
                const double t0 = nowSeconds();
                ckpt::Snapshot s = ckpt::save(m);
                const double dt = nowSeconds() - t0;
                if (r == 0 || dt < bestSeconds)
                    bestSeconds = dt;
                if (r == 0)
                    snap = std::move(s);
            }
        }
        while (m.stepOne()) {
        }
        return m.finishRun();
    }
};

/** Times the replay+audit restore of one snapshot. */
struct CkptRestoreProbe : alewife::core::RunDriver
{
    const ckpt::Snapshot &snap;
    double seconds = 0.0;

    explicit CkptRestoreProbe(const ckpt::Snapshot &s) : snap(s) {}

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        const double t0 = nowSeconds();
        const ckpt::ResumeResult r = ckpt::resume(m, f, snap);
        seconds = nowSeconds() - t0;
        if (!r.ok) {
            std::fprintf(stderr, "perf_kernel: %s\n", r.error.c_str());
            std::abort();
        }
        while (m.stepOne()) {
        }
        return m.finishRun();
    }
};

std::pair<Row, Row>
runCkpt(const core::AppFactory &factory, const Row &straight, int repeat)
{
    const core::RunSpec spec; // SM at the base machine, like straight

    CkptSaveProbe saver(straight.events / 2, repeat);
    core::runApp(factory, spec, true, nullptr, &saver);
    const std::uint64_t bytes = saver.snap->doc.dump(1).size();

    Row save;
    save.name = "ckpt_save";
    save.events = saver.at;
    save.wallSeconds = saver.bestSeconds;
    save.snapshotBytes = bytes;
    save.mbPerSec =
        static_cast<double>(bytes) / 1e6 / saver.bestSeconds;
    save.pauseCyclesEquiv = saver.bestSeconds * straight.runtimeCycles
                            / straight.wallSeconds;

    Row restore;
    restore.name = "ckpt_restore";
    restore.events = saver.at;
    restore.snapshotBytes = bytes;
    for (int r = 0; r < repeat; ++r) {
        CkptRestoreProbe probe(*saver.snap);
        core::runApp(factory, spec, true, nullptr, &probe);
        if (r == 0 || probe.seconds < restore.wallSeconds)
            restore.wallSeconds = probe.seconds;
    }
    restore.eventsPerSec =
        static_cast<double>(restore.events) / restore.wallSeconds;
    restore.mbPerSec =
        static_cast<double>(bytes) / 1e6 / restore.wallSeconds;
    return {save, restore};
}

// ---------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto pos = line.find("model name");
        if (pos != std::string::npos) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    }
    return "unknown";
}

exp::Json
machineMeta()
{
    auto m = exp::Json::object();
    m.set("cpu", cpuModel());
#if defined(__unix__)
    utsname u{};
    if (uname(&u) == 0) {
        m.set("os", std::string(u.sysname) + " " + u.release);
        m.set("arch", u.machine);
        m.set("host", u.nodename);
    }
    m.set("hw_threads",
          static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
#endif
    return m;
}

/**
 * Commit identity: scripts/bench.sh exports ALEWIFE_GIT_SHA so the
 * JSON records exactly which tree produced the numbers; a bare binary
 * run (no wrapper, no git) degrades to "unknown".
 */
std::string
gitSha()
{
    if (const char *env = std::getenv("ALEWIFE_GIT_SHA"))
        return env;
    return "unknown";
}

exp::Json
buildMeta()
{
    auto b = exp::Json::object();
    b.set("compiler", __VERSION__);
    b.set("git_sha", gitSha());
#ifdef ALEWIFE_BUILD_TYPE
    b.set("build_type", ALEWIFE_BUILD_TYPE);
#else
    b.set("build_type", "unknown");
#endif
#ifdef NDEBUG
    b.set("assertions", false);
#else
    b.set("assertions", true);
#endif
    return b;
}

std::string
isoTimestamp()
{
    char buf[64];
    const std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto scale = bench::parseScale(argc, argv);
    const bool quick = scale == bench::Scale::Quick;
    std::string out = "BENCH_kernel.json";
    int repeat = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--out" && i + 1 < argc)
            out = argv[i + 1];
        if (std::string(argv[i]) == "--repeat" && i + 1 < argc)
            repeat = std::max(1, std::atoi(argv[i + 1]));
    }

    const std::uint64_t microEvents = quick ? 200'000 : 4'000'000;
    std::vector<Row> rows;

    std::printf("PERF: simulation-kernel benchmark (%s scale)\n\n",
                quick ? "quick" : "default");

    // --- microbenches ---
    rows.push_back(runMicro(
        "eq_chain", microEvents, 64, repeat,
        [](EventQueue &eq, std::uint64_t &remaining, int a) {
            eq.schedule(static_cast<Tick>(a + 1),
                        Chain{&eq, &remaining,
                              static_cast<Tick>(5 + a % 7)});
        }));
    rows.push_back(runMicro(
        "eq_chain_obs", microEvents, 64, repeat,
        [](EventQueue &eq, std::uint64_t &remaining, int a) {
            eq.schedule(static_cast<Tick>(a + 1),
                        Chain{&eq, &remaining,
                              static_cast<Tick>(5 + a % 7)});
        },
        /*withObserver=*/true));
    rows.push_back(runMicro(
        "eq_random", microEvents, 64, repeat,
        [](EventQueue &eq, std::uint64_t &remaining, int a) {
            eq.schedule(static_cast<Tick>(a + 1),
                        RandomChain{&eq, &remaining,
                                    Rng(42 + static_cast<unsigned>(a))});
        }));
    rows.push_back(runMicro(
        "eq_cancel_churn", microEvents / 2, 64, repeat,
        [](EventQueue &eq, std::uint64_t &remaining, int a) {
            eq.schedule(static_cast<Tick>(a + 1),
                        CancelChain{&eq, &remaining});
        }));

    // --- standard workload bundle ---
    rows.push_back(runWorkload(
        "em3d_sm", apps::Em3d::factory(bench::em3dParams(scale)),
        core::Mechanism::SharedMemory, 0.0));
    rows.push_back(runWorkload(
        "iccg_sm", apps::Iccg::factory(bench::iccgParams(scale)),
        core::Mechanism::SharedMemory, 0.0));
    // Irregular point-to-point traffic (R-MAT BFS under polling):
    // stresses the active-message delivery path rather than the
    // coherence protocol, so kernel regressions in either show up.
    rows.push_back(runWorkload(
        "graph_bfs",
        apps::graph::makeApp(
            "bfs",
            bench::graphParams(scale, workload::GraphFamily::RMat)),
        core::Mechanism::MpPolling, 0.0));
    // NI-full retry storm (R-MAT pagerank-push under interrupts): nearly
    // every event redelivers a packet parked behind a full NI queue, so
    // this row tracks the kernel's slot-free retry-record path.
    rows.push_back(runWorkload(
        "graph_prpush_mpi",
        apps::graph::makeApp(
            "pagerank-push",
            bench::graphParams(scale, workload::GraphFamily::RMat)),
        core::Mechanism::MpInterrupt, 0.0));
    // One Figure-8 column: EM3D under cross-traffic consuming 8 B/cyc
    // of the native 18 B/cyc bisection, SM and MP-interrupt.
    const auto fig08Params = bench::em3dParams(bench::Scale::Quick);
    rows.push_back(runWorkload(
        "fig08_em3d_sm", apps::Em3d::factory(fig08Params),
        core::Mechanism::SharedMemory, 8.0));
    rows.push_back(runWorkload(
        "fig08_em3d_mpi", apps::Em3d::factory(fig08Params),
        core::Mechanism::MpInterrupt, 8.0));

    // --- checkpoint save/restore throughput ---
    {
        const Row *em3d = nullptr;
        for (const auto &r : rows)
            if (r.name == "em3d_sm")
                em3d = &r;
        const auto [save, restore] = runCkpt(
            apps::Em3d::factory(bench::em3dParams(scale)), *em3d,
            repeat);
        rows.push_back(save);
        rows.push_back(restore);
    }

    // --- critical-path capture overhead + analytic solve throughput ---
    // Capture = the em3d_sm workload with the dependency recorder
    // attached (src/obs/critpath.hh); overhead reads against the
    // em3d_sm row. Solve = repeated analytic replays of the captured
    // graph at varied targets — the marginal cost of one predicted
    // sweep point (src/obs/predict.hh).
    {
        const auto factory =
            apps::Em3d::factory(bench::em3dParams(scale));
        core::RunSpec spec;
        obs::CritPathRecorder rec;
        const double t0 = nowSeconds();
        const auto res = core::runApp(factory, spec, true, nullptr,
                                      nullptr, &rec);
        Row cap;
        cap.name = "critpath_capture";
        cap.events = res.simEvents;
        cap.wallSeconds = nowSeconds() - t0;
        cap.eventsPerSec =
            static_cast<double>(cap.events) / cap.wallSeconds;
        cap.runtimeCycles = res.runtimeCycles;
        cap.graphBytes = rec.graph().memoryBytes();
        rows.push_back(cap);

        obs::Predictor p(rec.graph());
        const int solves = quick ? 50 : 200;
        double acc = 0.0;
        const double s0 = nowSeconds();
        for (int i = 0; i < solves; ++i) {
            obs::PredictTarget t = p.baseTarget();
            t.machine.procMhz = 14.0 + i % 27; // defeat any caching
            acc += p.predictRuntimeCycles(t);
        }
        Row solve;
        solve.name = "critpath_solve";
        solve.wallSeconds = nowSeconds() - s0;
        solve.events = p.solveEvents()
                       * static_cast<std::uint64_t>(solves);
        solve.eventsPerSec =
            static_cast<double>(solve.events) / solve.wallSeconds;
        solve.solvesPerSec =
            static_cast<double>(solves) / solve.wallSeconds;
        if (acc <= 0.0) {
            std::fprintf(stderr,
                         "perf_kernel: predictor returned no runtime\n");
            return 1;
        }
        rows.push_back(solve);
    }

    // --- report ---
    std::printf("%-18s %12s %10s %14s %14s\n", "benchmark", "events",
                "wall (s)", "events/sec", "cycles");
    for (const auto &r : rows) {
        std::printf("%-18s %12llu %10.3f %14.0f %14.0f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.events),
                    r.wallSeconds, r.eventsPerSec, r.runtimeCycles);
        if (r.snapshotBytes > 0) {
            std::printf("  %-16s %.2f MB snapshot, %.1f MB/s",
                        "", static_cast<double>(r.snapshotBytes) / 1e6,
                        r.mbPerSec);
            if (r.pauseCyclesEquiv > 0.0)
                std::printf(", ~%.0f cycles paused/save",
                            r.pauseCyclesEquiv);
            std::printf("\n");
        }
        if (r.graphBytes > 0)
            std::printf("  %-16s %.2f MB dependency graph\n", "",
                        static_cast<double>(r.graphBytes) / 1e6);
        if (r.solvesPerSec > 0.0)
            std::printf("  %-16s %.0f predicted sweep points/s\n", "",
                        r.solvesPerSec);
    }

    auto doc = exp::Json::object();
    // v3: v2 without the engine block and the per-row threads /
    // parallel_windows fields.
    doc.set("schema_version", 3);
    doc.set("benchmark", "perf_kernel");
    doc.set("mode", quick ? "quick" : "default");
    doc.set("generated_at", isoTimestamp());
    doc.set("repeat", repeat);
    doc.set("machine", machineMeta());
    doc.set("build", buildMeta());
    auto arr = exp::Json::array();
    for (const auto &r : rows) {
        auto o = exp::Json::object();
        o.set("name", r.name);
        o.set("events", r.events);
        o.set("wall_seconds", r.wallSeconds);
        o.set("events_per_sec", r.eventsPerSec);
        if (r.runtimeCycles > 0.0)
            o.set("runtime_cycles", r.runtimeCycles);
        if (r.snapshotBytes > 0) {
            o.set("snapshot_bytes", r.snapshotBytes);
            o.set("mb_per_sec", r.mbPerSec);
            if (r.pauseCyclesEquiv > 0.0)
                o.set("pause_cycles_equiv", r.pauseCyclesEquiv);
        }
        if (r.graphBytes > 0)
            o.set("graph_bytes", r.graphBytes);
        if (r.solvesPerSec > 0.0)
            o.set("solves_per_sec", r.solvesPerSec);
        arr.push(std::move(o));
    }
    doc.set("results", std::move(arr));

    std::ofstream f(out);
    f << doc.dump(2) << '\n';
    if (!f) {
        std::fprintf(stderr, "perf_kernel: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
