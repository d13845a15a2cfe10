/**
 * @file
 * Goldens for NI-full parking, recorded from the kernel that ran every
 * redelivery poll as its own event. Each table pins what any change to
 * how parked packets are polled must keep bit-identical:
 *
 *  - a clock sweep of the three graph kernels under the three
 *    message-passing mechanisms (each clock moves every tick alignment,
 *    so polls and real events share ticks in different places);
 *  - every link's (freeAt, busyTicks, bytes) at the end of the
 *    pagerank-push poll storms;
 *  - warm starts forked mid-storm that continue on another
 *    niRetryCycles, their final link state included;
 *  - the model state of snapshots taken mid-storm.
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

/** A warm start that also keeps the final link state. */
struct WarmHarvest : core::RunDriver
{
    const ckpt::Snapshot &snap;
    MachineConfig variant;
    std::uint64_t links = 0;

    WarmHarvest(const ckpt::Snapshot &s, MachineConfig v)
        : snap(s), variant(std::move(v))
    {
    }

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        const ckpt::ResumeResult r = ckpt::resumeWarm(m, f, snap, variant);
        EXPECT_TRUE(r.ok) << r.error;
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
        "prpush MPI retry=4.0 ev=4451108 rt=410cac04b851eb85 ck=42e4f66318e34340 stalls=4422542 rejects=0 links=a9de68265e9c499b",
        "prpush MPI retry=8.0 ev=2387446 rt=410cab1f33333333 ck=42e4f66318e34340 stalls=2358882 rejects=0 links=378bcd655d8952e0",
        "prpush MPI retry=13.5 ev=1546806 rt=410cabb8a3d70a3d ck=42e4f66318e34340 stalls=1518248 rejects=0 links=e6c57fe12dd4854a",
        "prpush MPI retry=24.0 ev=1011687 rt=410cae77ae147ae1 ck=42e4f66318e34340 stalls=983139 rejects=0 links=8b3e8a428a344447",
        "prpush MPP retry=4.0 ev=9799826 rt=4107299b0a3d70a4 ck=42e4f66318e34340 stalls=9774222 rejects=0 links=045fbd34915b0772",
        "prpush MPP retry=8.0 ev=5065822 rt=410729db0a3d70a4 ck=42e4f66318e34340 stalls=5040215 rejects=0 links=011284156db48e40",
        "prpush MPP retry=13.5 ev=3131078 rt=41072a9d0a3d70a4 ck=42e4f66318e34340 stalls=3105477 rejects=0 links=aa09030f31d84ee2",
        "prpush MPP retry=24.0 ev=1902498 rt=41072af266666666 ck=42e4f66318e34340 stalls=1876892 rejects=0 links=2e351d244e94e2e1",
    };
    std::vector<std::string> got;
    const core::AppFactory factory = rmatApp("pagerank-push");
    for (const MechName &m : {kMechs[0], kMechs[1]}) {
        core::RunSpec spec;
        spec.mechanism = m.mech;
        ckpt::ForkPointDriver fork(300'000);
        core::runApp(factory, spec, true, nullptr, &fork);
        ASSERT_TRUE(fork.snapshot().has_value());
        for (double retry : {4.0, 8.0, 13.5, 24.0}) {
            MachineConfig variant = spec.machine;
            variant.niRetryCycles = retry;
            WarmHarvest warm(*fork.snapshot(), variant);
            const core::RunResult r =
                core::runApp(factory, spec, true, nullptr, &warm);
            char label[64];
            std::snprintf(label, sizeof label, "prpush %s retry=%.1f",
                          m.name, retry);
            char links[64];
            std::snprintf(links, sizeof links, " links=%016llx",
                          static_cast<unsigned long long>(warm.links));
            got.push_back(line(label, r, 0) + links);
        }
    }
    EXPECT_EQ(got, want);
}


/** Pauses at event `at`, keeps the snapshot's model state, finishes. */
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
    const std::vector<std::string> want = {
        "now=0x0000000000209ac7 executed=0x00000000000493e0 mesh=0x6e4da3ba1fd9a28b memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0xfefe983dc8bd9093 sync=0x83ddae742da7cd77 ni=0xd462caba8fc76b59 cross=0xa0d3956019b69ab5 counters=0xa666e7a5b4e47b35",
        "now=0x0000000000209ac7 executed=0x00000000000493e0 mesh=0x6e4da3ba1fd9a28b memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0xfefe983dc8bd9093 sync=0x83ddae742da7cd77 ni=0xd462caba8fc76b59 cross=0xa0d3956019b69ab5 counters=0xa666e7a5b4e47b35",
        "now=0x000000000045c8b6 executed=0x00000000000a5b7f mesh=0x890a9ee6f5a592ee memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0x1e5cc575a9e22946 sync=0x83ddae742da7cd77 ni=0xc4aa2edb593df367 cross=0xa0d3956019b69ab5 counters=0x65d08b660c669051",
        "now=0x000000000045c8b6 executed=0x00000000000a5b7f mesh=0x890a9ee6f5a592ee memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0x1e5cc575a9e22946 sync=0x83ddae742da7cd77 ni=0xc4aa2edb593df367 cross=0xa0d3956019b69ab5 counters=0x65d08b660c669051",
        "now=0x00000000005ff4ac executed=0x00000000000f4241 mesh=0x3435a5a7e793a2f9 memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0x5559749cb8b33b42 sync=0x83ddae742da7cd77 ni=0xc1e525d1a6bd075f cross=0xa0d3956019b69ab5 counters=0x48cac641b67e9546",
        "now=0x00000000005ff4ac executed=0x00000000000f4241 mesh=0x3435a5a7e793a2f9 memory=0x4316b1565fc8a03c caches=0x3fffd6096f56e57d pfb=0x3f5fa9f3d4f52d7d coh=0xe29692c4c1554e9d procs=0x5559749cb8b33b42 sync=0x83ddae742da7cd77 ni=0xc1e525d1a6bd075f cross=0xa0d3956019b69ab5 counters=0x48cac641b67e9546",
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

} // namespace
} // namespace alewife
