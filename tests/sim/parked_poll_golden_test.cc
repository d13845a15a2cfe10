/**
 * @file
 * Goldens for NI-full parking. Each table pins what any change to how
 * parked packets are polled must keep bit-identical:
 *
 *  - a clock sweep of the three graph kernels under the three
 *    message-passing mechanisms (each clock moves every tick alignment,
 *    so polls and real events share ticks in different places);
 *  - every link's (freeAt, busyTicks, bytes) at the end of the
 *    pagerank-push poll storms;
 *  - warm starts forked mid-storm that continue on retimed links,
 *    their final link state included;
 *  - the model state of snapshots taken mid-storm.
 *
 * The first two tables were recorded from the kernel that ran every
 * redelivery poll as its own event. A pause lands on a real event, so
 * the mid-storm tables fork and snapshot at the first real-event
 * boundary at or past their target count (300,003, 678,917 and
 * 1,000,128 under MP-I; 300,501 under MP-P, with 221 to 815 packets
 * parked there). They were recorded at those counts on the parked-poll
 * kernel that could also pause between virtual polls, while it still
 * matched the first two tables and the earlier mid-storm goldens.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/graph/catalog.hh"
#include "check/hooks.hh"
#include "ckpt/ckpt.hh"
#include "ckpt/driver.hh"
#include "ckpt/restore.hh"
#include "core/runner.hh"
#include "exp/result_cache.hh"

namespace alewife {
namespace {

/** The KernelGolden graph scale: R-MAT, 1024 vertices, degree 8. */
core::AppFactory
rmatApp(const std::string &name)
{
    apps::graph::GraphAppParams p;
    p.graph.family = workload::GraphFamily::RMat;
    p.graph.vertices = 1024;
    p.graph.avgDegree = 8;
    p.graph.nprocs = 32;
    p.iters = 3;
    return apps::graph::makeApp(name, p);
}

/** Digest of every link's (freeAt, busyTicks, bytes). */
std::uint64_t
linkDigest(Machine &m)
{
    std::string links;
    for (const net::Mesh::Link &l : m.mesh().linkStats())
        links += std::to_string(l.freeAt) + "," + std::to_string(l.busyTicks)
                 + "," + std::to_string(l.bytes) + ";";
    return exp::fnv1a64(links);
}

/** Runs to completion and keeps what only the live machine knows. */
struct Harvest : core::RunDriver
{
    std::uint64_t niRejects = 0;
    std::uint64_t links = 0;

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        const Tick finish = m.run(f);
        niRejects = m.mesh().niRejects();
        links = linkDigest(m);
        return finish;
    }
};

/** A warm start that also keeps the final link state and the count
 *  its replay paused at. */
struct WarmHarvest : core::RunDriver
{
    const ckpt::Snapshot &snap;
    MachineConfig variant;
    std::uint64_t links = 0;
    std::uint64_t resumedAt = 0;

    WarmHarvest(const ckpt::Snapshot &s, MachineConfig v)
        : snap(s), variant(std::move(v))
    {
    }

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        const ckpt::ResumeResult r = ckpt::resumeWarm(m, f, snap, variant);
        EXPECT_TRUE(r.ok) << r.error;
        resumedAt = m.eq().eventsExecuted();
        while (m.stepOne()) {
        }
        const Tick finish = m.finishRun();
        links = linkDigest(m);
        return finish;
    }
};

/** One line per result: every pinned field, doubles as bit patterns. */
std::string
line(const std::string &label, const core::RunResult &r,
     std::uint64_t rejects)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s ev=%llu rt=%016llx ck=%016llx "
                  "stalls=%llu rejects=%llu",
                  label.c_str(),
                  static_cast<unsigned long long>(r.simEvents),
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(r.runtimeCycles)),
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(r.checksum)),
                  static_cast<unsigned long long>(
                      r.counters.niQueueFullStalls),
                  static_cast<unsigned long long>(rejects));
    return buf;
}

struct MechName
{
    core::Mechanism mech;
    const char *name;
};

constexpr MechName kMechs[] = {
    {core::Mechanism::MpInterrupt, "MPI"},
    {core::Mechanism::MpPolling, "MPP"},
    {core::Mechanism::BulkTransfer, "BULK"},
};

TEST(ParkedPollGolden, GraphClockSweepMatchesThePollPerEventKernel)
{
    const std::vector<std::string> want = {
        "pagerank-push MPI 14 ev=1469304 rt=410cab035c28f5c3 ck=42e4f66318e34340 stalls=1440881 rejects=1440881",
        "pagerank-push MPI 20 ev=1357566 rt=410cac77d70a3d71 ck=42e4f66318e34340 stalls=1328983 rejects=1328983",
        "pagerank-push MPI 40 ev=675318 rt=410cafffd70a3d71 ck=42e4f66318e34340 stalls=646100 rejects=646100",
        "pagerank-push MPP 14 ev=2694723 rt=4107297cb851eb85 ck=42e4f66318e34340 stalls=2669174 rejects=2669174",
        "pagerank-push MPP 20 ev=2691301 rt=410729fd70a3d70a ck=42e4f66318e34340 stalls=2665703 rejects=2665703",
        "pagerank-push MPP 40 ev=2740151 rt=4107d33e147ae148 ck=42e4f66318e34340 stalls=2713737 rejects=2713737",
        "pagerank-push BULK 14 ev=19517 rt=410da6b35c28f5c3 ck=42e4f66318e34340 stalls=0 rejects=0",
        "pagerank-push BULK 20 ev=19512 rt=410da6da7ae147ae ck=42e4f66318e34340 stalls=0 rejects=0",
        "pagerank-push BULK 40 ev=19674 rt=410da75cf5c28f5c ck=42e4f66318e34340 stalls=0 rejects=0",
        "bfs MPI 14 ev=144553 rt=40e79d0f0a3d70a4 ck=43195858e9430820 stalls=138108 rejects=138108",
        "bfs MPI 20 ev=140704 rt=40e7997eb851eb85 ck=43195858e9430820 stalls=134211 rejects=134211",
        "bfs MPI 40 ev=43180 rt=40e7d617ae147ae1 ck=43195858e9430820 stalls=36377 rejects=36377",
        "bfs MPP 14 ev=156946 rt=40e1eec851eb851f ck=43195858e9430820 stalls=151252 rejects=151252",
        "bfs MPP 20 ev=156679 rt=40e20d9333333333 ck=43195858e9430820 stalls=150923 rejects=150923",
        "bfs MPP 40 ev=160964 rt=40e2d280a3d70a3d ck=43195858e9430820 stalls=154980 rejects=154980",
        "bfs BULK 14 ev=4862 rt=40ed040ccccccccd ck=43195858e9430820 stalls=0 rejects=0",
        "bfs BULK 20 ev=4858 rt=40ed04ed70a3d70a ck=43195858e9430820 stalls=0 rejects=0",
        "bfs BULK 40 ev=4893 rt=40ed07dae147ae14 ck=43195858e9430820 stalls=0 rejects=0",
        "sssp MPI 14 ev=19603 rt=40ed15a000000000 ck=432cda1197d42c5e stalls=9831 rejects=9831",
        "sssp MPI 20 ev=19445 rt=40ed15a000000000 ck=432cda1197d42c5e stalls=9683 rejects=9683",
        "sssp MPI 40 ev=17433 rt=40ed24f570a3d70a ck=432cda1197d42c5e stalls=7547 rejects=7547",
        "sssp MPP 14 ev=74559 rt=40e5a9a000000000 ck=432cda1197d42c5e stalls=65490 rejects=65490",
        "sssp MPP 20 ev=74197 rt=40e5aaf28f5c28f6 ck=432cda1197d42c5e stalls=65134 rejects=65134",
        "sssp MPP 40 ev=73073 rt=40e62268a3d70a3d ck=432cda1197d42c5e stalls=63827 rejects=63827",
        "sssp BULK 14 ev=9063 rt=40f308628f5c28f6 ck=432cda1197d42c5e stalls=0 rejects=0",
        "sssp BULK 20 ev=9069 rt=40f3098547ae147b ck=432cda1197d42c5e stalls=0 rejects=0",
        "sssp BULK 40 ev=9076 rt=40f30c3eb851eb85 ck=432cda1197d42c5e stalls=0 rejects=0",
    };
    std::vector<std::string> got;
    for (const char *app : {"pagerank-push", "bfs", "sssp"}) {
        for (const MechName &m : kMechs) {
            for (double mhz : {14.0, 20.0, 40.0}) {
                core::RunSpec spec;
                spec.mechanism = m.mech;
                spec.machine.procMhz = mhz;
                Harvest h;
                const core::RunResult r =
                    core::runApp(rmatApp(app), spec, true, nullptr, &h);
                got.push_back(line(std::string(app) + " " + m.name + " "
                                       + std::to_string(int(mhz)),
                                   r, h.niRejects));
            }
        }
    }
    EXPECT_EQ(got, want);
}

TEST(ParkedPollGolden, LinkStateAtFinishMatchesThePollPerEventKernel)
{
    const std::vector<std::string> want = {
        "prpush MPI ev=1357566 rt=410cac77d70a3d71 ck=42e4f66318e34340 stalls=1328983 rejects=1328983 links=052fe3e1cbaf635a",
        "prpush MPP ev=2691301 rt=410729fd70a3d70a ck=42e4f66318e34340 stalls=2665703 rejects=2665703 links=3922bd94c2d8fc37",
    };
    std::vector<std::string> got;
    for (const MechName &m : {kMechs[0], kMechs[1]}) {
        core::RunSpec spec;
        spec.mechanism = m.mech;
        Harvest h;
        const core::RunResult r =
            core::runApp(rmatApp("pagerank-push"), spec, true, nullptr, &h);
        char buf[64];
        std::snprintf(buf, sizeof buf, " links=%016llx",
                      static_cast<unsigned long long>(h.links));
        got.push_back(line(std::string("prpush ") + m.name, r, h.niRejects)
                      + buf);
    }
    EXPECT_EQ(got, want);
}

TEST(ParkedPollGolden, MidStormWarmStartsMatchThePollPerEventKernel)
{
    const std::vector<std::string> want = {
        "prpush MPI fork=300003 linkMBps*0.5 ev=731107 rt=410cb65ee147ae14 ck=42e4f66318e34340 stalls=702073 rejects=0 links=57a9974351dc3d74",
        "prpush MPI fork=300003 linkMBps*2 ev=1356951 rt=410caa8e147ae148 ck=42e4f66318e34340 stalls=1328350 rejects=0 links=757e418a55e55337",
        "prpush MPI fork=300003 hopNs*3 ev=1057580 rt=410caee851eb851f ck=42e4f66318e34340 stalls=1028959 rejects=0 links=d8bb952a75971913",
        "prpush MPP fork=300501 linkMBps*0.5 ev=2780270 rt=410796739999999a ck=42e4f66318e34340 stalls=2754299 rejects=0 links=af0371517dfdf22f",
        "prpush MPP fork=300501 linkMBps*2 ev=2692834 rt=4107297e147ae148 ck=42e4f66318e34340 stalls=2667224 rejects=0 links=aded5f1367332553",
        "prpush MPP fork=300501 hopNs*3 ev=2692133 rt=41072bc2a3d70a3d ck=42e4f66318e34340 stalls=2666524 rejects=0 links=76775d495507c4c1",
    };
    struct Variant
    {
        const char *label;
        double linkScale;
        double hopScale;
    };
    constexpr Variant kVariants[] = {
        {"linkMBps*0.5", 0.5, 1.0},
        {"linkMBps*2", 2.0, 1.0},
        {"hopNs*3", 1.0, 3.0},
    };
    std::vector<std::string> got;
    const core::AppFactory factory = rmatApp("pagerank-push");
    for (const MechName &m : {kMechs[0], kMechs[1]}) {
        core::RunSpec spec;
        spec.mechanism = m.mech;
        ckpt::ForkPointDriver fork(300'000);
        core::runApp(factory, spec, true, nullptr, &fork);
        ASSERT_TRUE(fork.snapshot().has_value());
        const std::uint64_t forkedAt = fork.snapshot()->eventsExecuted();
        for (const Variant &v : kVariants) {
            // Every parked packet's final link is retimed from the fork.
            MachineConfig variant = spec.machine;
            variant.linkMBps *= v.linkScale;
            variant.hopNs *= v.hopScale;
            WarmHarvest warm(*fork.snapshot(), variant);
            const core::RunResult r =
                core::runApp(factory, spec, true, nullptr, &warm);
            EXPECT_EQ(warm.resumedAt, forkedAt);
            char label[96];
            std::snprintf(label, sizeof label, "prpush %s fork=%llu %s",
                          m.name, static_cast<unsigned long long>(forkedAt),
                          v.label);
            char links[64];
            std::snprintf(links, sizeof links, " links=%016llx",
                          static_cast<unsigned long long>(warm.links));
            got.push_back(line(label, r, 0) + links);
        }
    }
    EXPECT_EQ(got, want);
}

/**
 * Pauses at the first real event at or past event `at`, keeps the
 * snapshot's model state, finishes.
 */
struct PauseDigest : core::RunDriver
{
    std::uint64_t at = 0;
    check::Hooks *hooks = nullptr;
    std::string digest;

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        if (hooks)
            m.attachHooks(hooks);
        m.start(f);
        if (m.stepUntilEvents(at)) {
            // Every section but the event list and the kernel's seq
            // counter: how pending polls are numbered and stored is
            // the kernel's business, what they did to the model is not.
            const ckpt::Snapshot s = ckpt::save(m);
            const exp::Json &k = s.doc.at("kernel");
            digest = "now=" + k.at("now").asString()
                     + " executed=" + k.at("executed").asString();
            for (const char *sec : {"mesh", "memory", "caches", "pfb", "coh",
                                    "procs", "sync", "ni", "cross",
                                    "counters"})
                digest += std::string(" ") + sec + "="
                          + s.doc.at("digests").at(sec).asString();
        }
        while (m.stepOne()) {
        }
        return m.finishRun();
    }
};

TEST(ParkedPollGolden, MidStormSnapshotsMatchThePollPerEventKernel)
{
    // executed: 300,003, 678,917 and 1,000,128.
    const std::vector<std::string> want = {
        "now=0x0000000000209ae0 executed=0x00000000000493e3 mesh=0x1727998f602a2b30 memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0x53144794f3d9e8e6 sync=0x83ddae742da7cd77 ni=0x7c89016b34d362f1 cross=0xa0d3956019b69ab5 counters=0xf3bb7b76847d5ce0",
        "now=0x0000000000209ae0 executed=0x00000000000493e3 mesh=0x1727998f602a2b30 memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0x53144794f3d9e8e6 sync=0x83ddae742da7cd77 ni=0x7c89016b34d362f1 cross=0xa0d3956019b69ab5 counters=0xf3bb7b76847d5ce0",
        "now=0x000000000045cb9a executed=0x00000000000a5c05 mesh=0x2e07870e5e6474af memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0xd20479611837e0f6 sync=0x83ddae742da7cd77 ni=0x80629a6836afc3c4 cross=0xa0d3956019b69ab5 counters=0x416db45102e43ad3",
        "now=0x000000000045cb9a executed=0x00000000000a5c05 mesh=0x2e07870e5e6474af memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0xd20479611837e0f6 sync=0x83ddae742da7cd77 ni=0x80629a6836afc3c4 cross=0xa0d3956019b69ab5 counters=0x416db45102e43ad3",
        "now=0x00000000005ff76d executed=0x00000000000f42c0 mesh=0x25e3d7e42dd68e0f memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0x5559749cb8b33b42 sync=0x83ddae742da7cd77 ni=0x0fceb9820f979036 cross=0xa0d3956019b69ab5 counters=0xf70a4b1ad4c2cb68",
        "now=0x00000000005ff76d executed=0x00000000000f42c0 mesh=0x25e3d7e42dd68e0f memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0x5559749cb8b33b42 sync=0x83ddae742da7cd77 ni=0x0fceb9820f979036 cross=0xa0d3956019b69ab5 counters=0xf70a4b1ad4c2cb68",
    };
    std::vector<std::string> got;
    check::Hooks noop;
    for (std::uint64_t at : {300'000ull, 678'783ull, 1'000'001ull}) {
        for (bool observed : {false, true}) {
            core::RunSpec spec;
            spec.mechanism = core::Mechanism::MpInterrupt;
            PauseDigest d;
            d.at = at;
            d.hooks = observed ? &noop : nullptr;
            core::runApp(rmatApp("pagerank-push"), spec, true, nullptr, &d);
            got.push_back(d.digest);
        }
    }
    EXPECT_EQ(got, want);
}

/** Resumes from a snapshot, keeps the outcome, finishes the run. */
struct ResumeProbe : core::RunDriver
{
    const ckpt::Snapshot &snap;
    ckpt::ResumeResult result;
    std::uint64_t stoppedAt = 0;

    explicit ResumeProbe(const ckpt::Snapshot &s) : snap(s) {}

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        result = ckpt::resume(m, f, snap);
        stoppedAt = m.eq().eventsExecuted();
        while (m.stepOne()) {
        }
        return m.finishRun();
    }
};

TEST(MidStormResume, RefusesAReplayThatStepsPastTheSnapshot)
{
    // A capture pauses on a real event; one whose recorded count is not
    // such a boundary cannot be replayed to, and resume says where the
    // replay stopped instead of reporting a kernel-section diff.
    const core::AppFactory factory = rmatApp("pagerank-push");
    core::RunSpec spec;
    spec.mechanism = core::Mechanism::MpInterrupt;
    ckpt::ForkPointDriver fork(678'783);
    core::runApp(factory, spec, true, nullptr, &fork);
    ASSERT_TRUE(fork.snapshot().has_value());
    ckpt::Snapshot snap = *fork.snapshot();
    ASSERT_EQ(snap.eventsExecuted(), 678'917u);

    ResumeProbe exact(snap);
    core::runApp(factory, spec, true, nullptr, &exact);
    EXPECT_TRUE(exact.result.ok) << exact.result.error;
    EXPECT_EQ(exact.stoppedAt, 678'917u);

    exp::Json kernel = snap.doc.at("kernel");
    kernel.set("executed", ckpt::hexU64(678'918));
    snap.doc.set("kernel", std::move(kernel));
    ResumeProbe moved(snap);
    core::runApp(factory, spec, true, nullptr, &moved);
    EXPECT_FALSE(moved.result.ok);
    // The next real event after 678,917 ends at 679,191.
    EXPECT_NE(moved.result.error.find("replay reached 679191 events; the "
                                      "snapshot was taken at 678918"),
              std::string::npos)
        << moved.result.error;
    EXPECT_EQ(moved.stoppedAt, 679'191u);
}

} // namespace
} // namespace alewife
