/**
 * @file
 * Property test: parked NI-full packets (virtual polls, lazy link holds,
 * wake-on-room arming) against a reference model in which every poll is
 * its own (when, seq) event, as the kernel ran them before parking.
 *
 * Both sides run the same random script of sends and receiver drains on
 * a 2x2 mesh whose every latency is a whole number of cycles, so sends,
 * drains, arrivals and polls all land on one tick grid and share ticks
 * constantly. Acceptance order and ticks, each link's horizon and busy
 * time, reject counts and executed-event counts must agree exactly, at
 * the end and at every drain.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "net/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace alewife::net {
namespace {

struct Action
{
    Tick at;
    bool drain; ///< drain one message at `node`, else send
    NodeId node;
    NodeId dst;
    std::uint32_t bytes;
};

struct Accept
{
    Tick at;
    int id;
    NodeId node;

    bool
    operator==(const Accept &o) const
    {
        return std::tie(at, id, node) == std::tie(o.at, o.id, o.node);
    }
};

/** What each side reports, compared field by field. */
struct Trace
{
    std::vector<Accept> accepts;
    /** (tick, eventsExecuted, rejects) at every drain, after it ran. */
    std::vector<std::tuple<Tick, std::uint64_t, std::uint64_t>> drains;
    std::vector<std::pair<Tick, std::uint64_t>> links;
    std::uint64_t rejects = 0;
    std::uint64_t events = 0;
};

MachineConfig
gridConfig(double retryCycles)
{
    MachineConfig c;
    c.meshX = 2;
    c.meshY = 2;
    c.procMhz = 20.0;     // one cycle = 50 ns = 100 ticks
    c.hopNs = 50.0;       // one cycle per hop
    c.netFixedNs = 100.0; // two cycles
    c.linkMBps = 160.0;   // 8 bytes per cycle
    c.niRetryCycles = retryCycles;
    return c;
}

std::vector<Action>
script(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Action> out;
    for (int i = 0; i < 160; ++i) {
        Action a;
        a.at = 100 * rng.nextBounded(120);
        a.drain = rng.nextBounded(3) == 0;
        a.node = static_cast<NodeId>(rng.nextBounded(4));
        a.dst = static_cast<NodeId>(rng.nextBounded(4));
        a.bytes = 8 * static_cast<std::uint32_t>(1 + rng.nextBounded(4));
        out.push_back(a);
    }
    return out;
}

/** How runParked() drives the queue. */
enum class Drive
{
    Run,  ///< run(): virtual polls accounted lazily
    Step, ///< one real event per step() call, its virtual polls with it
};

/** Parking as implemented: net::Mesh over EventQueue pollers. */
Trace
runParked(const MachineConfig &c, const std::vector<Action> &acts,
          int slots, Drive drive = Drive::Run)
{
    EventQueue eq;
    Mesh mesh(eq, c);
    Trace t;
    std::vector<int> held(4, 0);
    for (NodeId n = 0; n < 4; ++n)
        mesh.setSink(n, [&, n](Packet &p) {
            if (held[n] >= slots)
                return false;
            ++held[n];
            t.accepts.push_back({eq.now(), static_cast<int>(p.id), n});
            if (held[n] < slots)
                mesh.wake(n);
            return true;
        });
    for (const Action &a : acts) {
        if (a.drain) {
            eq.schedule(a.at, [&, a]() {
                if (held[a.node] > 0) {
                    --held[a.node];
                    mesh.wake(a.node);
                }
                t.drains.emplace_back(eq.now(), eq.eventsExecuted(),
                                      mesh.niRejects());
            });
        } else {
            eq.schedule(a.at, [&, a]() {
                auto p = std::make_unique<Packet>();
                p->src = a.node;
                p->dst = a.dst;
                p->kind = PacketKind::CrossTraffic;
                p->addBytes(VolCat::Data, a.bytes);
                mesh.send(std::move(p));
            });
        }
    }
    // Room at last everywhere, so every parked packet is delivered.
    eq.schedule(100 * 200, [&]() {
        for (NodeId n = 0; n < 4; ++n) {
            held[n] = -1'000'000;
            mesh.wake(n);
        }
    });
    switch (drive) {
      case Drive::Run:
        eq.run();
        break;
      case Drive::Step:
        for (std::uint64_t before = eq.eventsExecuted(); eq.step();
             before = eq.eventsExecuted())
            EXPECT_GT(eq.eventsExecuted(), before);
        break;
    }
    for (const Mesh::Link &l : mesh.linkStats())
        t.links.emplace_back(l.freeAt, l.busyTicks);
    t.rejects = mesh.niRejects();
    t.events = eq.eventsExecuted();
    return t;
}

/**
 * The reference: the same mesh timing written out, and a rejected
 * packet re-polls as its own event every retry period.
 */
Trace
runReference(const MachineConfig &c, const std::vector<Action> &acts,
             int slots)
{
    EventQueue eq;
    EventQueue scratch;
    Mesh timing(scratch, c); // serialization memo only
    const Tick fixed = cyclesToTicks(c.netFixedCycles());
    const Tick hop = cyclesToTicks(c.hopCycles());
    const Tick retry = cyclesToTicks(c.niRetryCycles);
    struct Link
    {
        Tick freeAt = 0;
        std::uint64_t busy = 0;
    };
    std::vector<Link> links(16);
    std::vector<int> held(4, 0);
    Trace t;

    auto route = [&](NodeId src, NodeId dst) {
        std::vector<int> r;
        int x = src % 2, y = src / 2;
        const int dx = dst % 2, dy = dst / 2;
        while (x != dx) {
            const int nx = x + (dx > x ? 1 : -1);
            r.push_back((y * 2 + x) * 4 + (nx > x ? 0 : 1));
            x = nx;
        }
        while (y != dy) {
            const int ny = y + (dy > y ? 1 : -1);
            r.push_back((y * 2 + x) * 4 + (ny > y ? 2 : 3));
            y = ny;
        }
        return r;
    };

    struct Pkt
    {
        int id;
        NodeId dst;
        int finalLink;
    };
    std::function<void(Pkt)> offer = [&](Pkt p) {
        if (held[p.dst] < slots) {
            ++held[p.dst];
            t.accepts.push_back({eq.now(), p.id, p.dst});
            return;
        }
        ++t.rejects;
        const Tick now = eq.now();
        const Tick at = now + retry;
        if (p.finalLink >= 0) {
            Link &l = links[p.finalLink];
            if (at > l.freeAt) {
                l.busy += at - std::max(l.freeAt, now);
                l.freeAt = at;
            }
        }
        eq.schedule(at, [&, p]() { offer(p); });
    };

    int nextId = 1;
    for (const Action &a : acts) {
        if (a.drain) {
            eq.schedule(a.at, [&, a]() {
                if (held[a.node] > 0)
                    --held[a.node];
                t.drains.emplace_back(eq.now(), eq.eventsExecuted(),
                                      t.rejects);
            });
        } else {
            eq.schedule(a.at, [&, a]() {
                const int id = nextId++; // the mesh numbers packets alike
                const std::vector<int> r = route(a.node, a.dst);
                const Tick ser = timing.serializationTicks(a.bytes);
                const Tick now = eq.now();
                Tick head = now + fixed;
                int last = -1;
                for (int li : r) {
                    Link &l = links[li];
                    head = std::max(head + hop, l.freeAt + hop);
                    l.freeAt = head + ser;
                    l.busy += ser;
                    last = li;
                }
                const Tick arrive = r.empty() ? now + fixed + ser
                                              : head + ser;
                const Pkt p{id, a.dst, last};
                eq.schedule(arrive, [&, p]() { offer(p); });
            });
        }
    }
    eq.schedule(100 * 200, [&]() {
        for (NodeId n = 0; n < 4; ++n)
            held[n] = -1'000'000;
    });
    eq.run();
    for (const Link &l : links)
        t.links.emplace_back(l.freeAt, l.busy);
    t.events = eq.eventsExecuted();
    return t;
}

struct Case
{
    std::uint64_t seed;
    double retryCycles;
    int slots;
};

/** Readable ctest names (gtest would dump the raw bytes, padding too). */
void
PrintTo(const Case &k, std::ostream *os)
{
    *os << "seed " << k.seed << " retry " << k.retryCycles << " slots "
        << k.slots;
}

void
expectSame(const Trace &got, const Trace &want)
{
    ASSERT_EQ(got.accepts.size(), want.accepts.size());
    for (std::size_t i = 0; i < want.accepts.size(); ++i) {
        EXPECT_EQ(got.accepts[i].at, want.accepts[i].at) << "accept " << i;
        EXPECT_EQ(got.accepts[i].id, want.accepts[i].id) << "accept " << i;
        EXPECT_EQ(got.accepts[i].node, want.accepts[i].node)
            << "accept " << i;
    }
    EXPECT_EQ(got.drains, want.drains);
    EXPECT_EQ(got.links, want.links);
    EXPECT_EQ(got.rejects, want.rejects);
    EXPECT_EQ(got.events, want.events);
}

class ParkingProperty : public ::testing::TestWithParam<Case>
{
};

TEST_P(ParkingProperty, MatchesPollPerEventReference)
{
    const Case k = GetParam();
    const MachineConfig c = gridConfig(k.retryCycles);
    const std::vector<Action> acts = script(k.seed);
    const Trace want = runReference(c, acts, k.slots);
    ASSERT_GT(want.rejects, 50u); // the script really parks packets
    for (Drive d : {Drive::Run, Drive::Step}) {
        SCOPED_TRACE(static_cast<int>(d));
        expectSame(runParked(c, acts, k.slots, d), want);
    }
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        out.push_back({seed, 1.0, 1});
        out.push_back({seed, 3.0, 1});
        out.push_back({seed, 3.0, 2});
        out.push_back({seed, 7.0, 1});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(Scripts, ParkingProperty,
                         ::testing::ValuesIn(cases()),
                         [](const auto &info) {
                             const Case &k = info.param;
                             return "seed" + std::to_string(k.seed) + "_r"
                                    + std::to_string(int(k.retryCycles))
                                    + "_slots" + std::to_string(k.slots);
                         });

} // namespace
} // namespace alewife::net
