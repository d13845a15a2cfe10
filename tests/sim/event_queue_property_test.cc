/**
 * @file
 * Property test: the EventQueue against a naive reference model.
 * Random schedules, nested schedules, cancellations and tagged records
 * must fire in exactly the order a (when, seq) reference predicts. The
 * EventQueueRetry and EventQueueStorm cases pin the parked-poller
 * contract: what snapshots and observers see, the order of a poll
 * against same-tick events (a storm of pollers among tying closures
 * against a (when, seq) reference), and the stepping contract (step
 * runs one real event and counts the virtual polls before it;
 * runUntil never passes its limit; the poll period is fixed while
 * anything is parked). tests/net/parking_property_test.cc checks
 * parking against a poll-per-event reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "check/hooks.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace alewife {
namespace {

struct RefEvent
{
    Tick when;
    std::uint64_t seq;
    int id;
    bool cancelled = false;
};

class EventQueueProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

/** What firing one event spawns; a negative delay spawns nothing. */
struct Spawn
{
    int recordDelay; ///< retry record this many ticks later
    int closureDelay; ///< closure this many ticks later
};

/**
 * The real queue's side of MatchesReferenceModel: firing event `id`
 * logs it and spawns what spawns[id] says, each under the next free id.
 */
struct Actor
{
    EventQueue &eq;
    const std::vector<Spawn> &spawns;
    int nextId;
    std::vector<int> fired;

    bool
    idLeft() const
    {
        return nextId < static_cast<int>(spawns.size());
    }

    void
    act(int id)
    {
        fired.push_back(id);
        const Spawn &sp = spawns[id];
        if (sp.recordDelay >= 0 && idLeft()) {
            const int child = nextId++;
            eq.schedule(eq.now() + static_cast<Tick>(sp.recordDelay),
                        EventMeta{EventTag::MeshRetry,
                                  static_cast<std::uint64_t>(child), 0},
                        [this, child]() { act(child); });
        }
        if (sp.closureDelay >= 0 && idLeft()) {
            const int child = nextId++;
            eq.schedule(eq.now() + static_cast<Tick>(sp.closureDelay),
                        [this, child]() { act(child); });
        }
    }
};

TEST_P(EventQueueProperty, MatchesReferenceModel)
{
    Rng rng(GetParam());
    constexpr int kInitial = 200;
    constexpr int kMaxIds = 800;

    // Phase 1: random initial schedule on a 10-tick grid, so events
    // share ticks with each other and with the events they spawn.
    std::vector<Tick> initialWhen;
    for (int i = 0; i < kInitial; ++i)
        initialWhen.push_back(10 * rng.nextBounded(100));

    // Phase 2: cancel a random subset.
    std::vector<bool> cancelled(kInitial, false);
    for (int i = 0; i < 60; ++i)
        cancelled[rng.nextBounded(kInitial)] = true;

    // Phase 3: from inside its callback, about half of all events push
    // a retry record and a third schedule a closure, 0..50 ticks later.
    // Records and closures spawned later tie with earlier ones of
    // either kind, so both sides of every tie carry the lower seq.
    std::vector<Spawn> spawns(kMaxIds);
    for (Spawn &sp : spawns) {
        sp.recordDelay =
            rng.nextBounded(2) ? 10 * static_cast<int>(rng.nextBounded(6))
                               : -1;
        sp.closureDelay =
            rng.nextBounded(3) ? -1
                               : 10 * static_cast<int>(rng.nextBounded(6));
    }

    // Reference: repeatedly fire the (when, seq)-least pending event.
    std::vector<int> order;
    {
        std::vector<RefEvent> pending;
        std::uint64_t seq = 0;
        for (int i = 0; i < kInitial; ++i)
            pending.push_back({initialWhen[i], seq++, i, cancelled[i]});
        int nextId = kInitial;
        while (!pending.empty()) {
            const auto it = std::min_element(
                pending.begin(), pending.end(),
                [](const RefEvent &a, const RefEvent &b) {
                    return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
                });
            const RefEvent e = *it;
            pending.erase(it);
            if (e.cancelled)
                continue;
            order.push_back(e.id);
            for (int d : {spawns[e.id].recordDelay,
                          spawns[e.id].closureDelay})
                if (d >= 0 && nextId < kMaxIds)
                    pending.push_back(
                        {e.when + static_cast<Tick>(d), seq++, nextId++});
        }
    }

    EventQueue eq;
    Actor actor{eq, spawns, kInitial, {}};
    std::vector<EventHandle> handles;
    for (int i = 0; i < kInitial; ++i)
        handles.push_back(
            eq.schedule(initialWhen[i], [&actor, i]() { actor.act(i); }));
    for (int i = 0; i < kInitial; ++i)
        if (cancelled[i])
            handles[i].cancel();

    eq.run();

    ASSERT_EQ(actor.nextId, kMaxIds); // spawns really took part
    ASSERT_EQ(actor.fired.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(actor.fired[i], order[i]) << "position " << i;
    EXPECT_EQ(eq.eventsExecuted(), order.size());
}

TEST_P(EventQueueProperty, NestedSchedulingKeepsTimeMonotone)
{
    Rng rng(GetParam());
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    int remaining = 300;

    std::function<void()> chain = [&]() {
        if (eq.now() < last)
            monotone = false;
        last = eq.now();
        if (--remaining > 0) {
            eq.schedule(eq.now() + rng.nextBounded(50),
                        [&]() { chain(); });
        }
    };
    eq.schedule(0, chain);
    eq.run();

    EXPECT_TRUE(monotone);
    EXPECT_EQ(remaining, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------
// Parked pollers (EventQueue::park / arm)
// ---------------------------------------------------------------------

EventMeta
pollMeta(int id)
{
    return EventMeta{EventTag::MeshRetry, static_cast<std::uint64_t>(id),
                     7};
}

/**
 * A poller parked at tick 0 with period 10 and armed by an event at 35:
 * virtual polls at 10, 20, 30, then the armed poll at 40 delivers.
 */
struct ParkedAt0
{
    EventQueue eq;
    EventQueue::PollerId id = EventQueue::kNoPoller;
    Tick delivered = 0;

    ParkedAt0()
    {
        eq.setPollPeriod(10);
        eq.schedule(0, [this]() { id = eq.park(pollMeta(1)); });
        eq.schedule(35, [this]() {
            eq.arm(id, [this]() {
                delivered = eq.now();
                eq.unpark(id);
            });
        });
    }
};

/**
 * A poll storm: poller id is parked by an event at parkTick(id) (its
 * first, rejected poll) and polls every kDelay ticks until an event at
 * armTick(id), one of its poll ticks, arms it. For even ids that event
 * arms directly and precedes the poll due then, which is accepted; for
 * odd ids it arms from a nested event at the same tick, which runs
 * after that poll, so the next poll is accepted. Closures queued up
 * front at closureTick(c) precede the polls they tie with; each spawns
 * a child two ticks later, which a poll due then precedes. Every
 * closure, child and accepted poll logs (id, tick, eventsExecuted()):
 * closure c logs -1-c, its child -1-kClosures-c, poller id's accepted
 * poll id.
 */
struct PollStorm
{
    static constexpr int kPollers = 5;
    static constexpr int kRejects = 40;
    static constexpr Tick kDelay = 4;
    static constexpr int kClosures = 30;

    using Log = std::vector<std::tuple<int, Tick, std::uint64_t>>;

    EventQueue eq;
    std::vector<EventQueue::PollerId> ids =
        std::vector<EventQueue::PollerId>(kPollers, EventQueue::kNoPoller);
    Log log;

    static Tick closureTick(int c) { return 6 * static_cast<Tick>(c) + 2; }
    static Tick parkTick(int id) { return 2 * static_cast<Tick>(id); }
    static Tick armTick(int id) { return parkTick(id) + kRejects * kDelay; }

    void note(int id) { log.emplace_back(id, eq.now(), eq.eventsExecuted()); }

    void
    arm(int id)
    {
        eq.arm(ids[id], [this, id]() {
            note(id);
            eq.unpark(ids[id]);
        });
    }

    PollStorm()
    {
        eq.setPollPeriod(kDelay);
        for (int c = 0; c < kClosures; ++c)
            eq.schedule(closureTick(c), [this, c]() {
                note(-1 - c);
                eq.schedule(eq.now() + 2,
                            [this, c]() { note(-1 - kClosures - c); });
            });
        for (int id = 0; id < kPollers; ++id)
            eq.schedule(parkTick(id),
                        [this, id]() { ids[id] = eq.park(pollMeta(id)); });
        for (int id = 0; id < kPollers; ++id)
            eq.schedule(armTick(id), [this, id]() {
                if (id % 2 == 0)
                    arm(id);
                else
                    eq.schedule(eq.now(), [this, id]() { arm(id); });
            });
    }

    struct Reference
    {
        Log log;
        std::uint64_t events = 0;
        std::uint64_t rejectedPolls = 0;
    };

    /** The same storm with every poll its own (when, seq) event. */
    static Reference
    expected()
    {
        enum class Kind { Closure, Child, Park, Arm, NestedArm, Poll };
        struct Ev
        {
            Tick when;
            std::uint64_t seq;
            Kind kind;
            int id;
        };
        std::vector<Ev> pending;
        std::uint64_t seq = 0;
        const auto push = [&](Tick when, Kind kind, int id) {
            pending.push_back({when, seq++, kind, id});
        };
        for (int c = 0; c < kClosures; ++c)
            push(closureTick(c), Kind::Closure, c);
        for (int id = 0; id < kPollers; ++id)
            push(parkTick(id), Kind::Park, id);
        for (int id = 0; id < kPollers; ++id)
            push(armTick(id), Kind::Arm, id);
        std::vector<bool> armed(kPollers, false);
        Reference out;
        while (!pending.empty()) {
            const auto it = std::min_element(
                pending.begin(), pending.end(), [](const Ev &a, const Ev &b) {
                    return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
                });
            const Ev e = *it;
            pending.erase(it);
            ++out.events;
            switch (e.kind) {
            case Kind::Closure:
                out.log.emplace_back(-1 - e.id, e.when, out.events);
                push(e.when + 2, Kind::Child, e.id);
                break;
            case Kind::Child:
                out.log.emplace_back(-1 - kClosures - e.id, e.when,
                                     out.events);
                break;
            case Kind::Park:
                push(e.when + kDelay, Kind::Poll, e.id);
                break;
            case Kind::Arm:
                if (e.id % 2 == 0)
                    armed[e.id] = true;
                else
                    push(e.when, Kind::NestedArm, e.id);
                break;
            case Kind::NestedArm:
                armed[e.id] = true;
                break;
            case Kind::Poll:
                if (armed[e.id]) {
                    out.log.emplace_back(e.id, e.when, out.events);
                } else {
                    ++out.rejectedPolls;
                    push(e.when + kDelay, Kind::Poll, e.id);
                }
                break;
            }
        }
        return out;
    }
};

TEST(EventQueueStorm, RunFiresEveryPollInReferenceOrder)
{
    using S = PollStorm;
    const S::Reference want = S::expected();
    ASSERT_EQ(want.log.size(),
              static_cast<std::size_t>(2 * S::kClosures + S::kPollers));
    // Even pollers: kRejects - 1 virtual polls; odd ones: kRejects.
    ASSERT_EQ(want.rejectedPolls,
              static_cast<std::uint64_t>(S::kPollers * S::kRejects
                                         - (S::kPollers + 1) / 2));
    for (bool stepped : {false, true}) {
        SCOPED_TRACE(stepped ? "step" : "run");
        PollStorm s;
        if (stepped) {
            for (std::uint64_t before = 0; s.eq.step();
                 before = s.eq.eventsExecuted())
                ASSERT_GT(s.eq.eventsExecuted(), before);
        } else {
            s.eq.run();
        }
        EXPECT_EQ(s.log, want.log);
        EXPECT_EQ(s.eq.eventsExecuted(), want.events);
        EXPECT_EQ(s.eq.virtualPolls(), want.rejectedPolls);
        EXPECT_TRUE(s.eq.empty());
    }
}

TEST(EventQueueStorm, StepRunsOneRealEventWithItsVirtualPolls)
{
    // The park at 0; the event at 35, counted after the virtual polls
    // at 10, 20 and 30; the armed poll at 40.
    ParkedAt0 s;
    const Tick wantTick[] = {0, 35, 40};
    const std::uint64_t wantCount[] = {1, 5, 6};
    for (std::size_t n = 0; n < std::size(wantTick); ++n) {
        ASSERT_TRUE(s.eq.step());
        EXPECT_EQ(s.eq.now(), wantTick[n]);
        EXPECT_EQ(s.eq.eventsExecuted(), wantCount[n]);
    }
    EXPECT_EQ(s.delivered, 40u);
    EXPECT_FALSE(s.eq.step());
    EXPECT_TRUE(s.eq.empty());
}

TEST(EventQueueStorm, RunUntilStopsAtItsLimit)
{
    ParkedAt0 s;
    EXPECT_FALSE(s.eq.runUntil(25));
    // The park at 0 and the virtual polls at 10 and 20, nothing past.
    EXPECT_EQ(s.eq.now(), 20u);
    EXPECT_EQ(s.eq.eventsExecuted(), 3u);
    EXPECT_FALSE(s.eq.empty());
    EXPECT_FALSE(s.eq.runUntil(36));
    EXPECT_EQ(s.eq.now(), 35u);
    EXPECT_EQ(s.eq.eventsExecuted(), 5u);
    EXPECT_TRUE(s.eq.runUntil(100));
    EXPECT_EQ(s.delivered, 40u);
    EXPECT_EQ(s.eq.eventsExecuted(), 6u);
    EXPECT_TRUE(s.eq.empty());
}

TEST(EventQueueRetry, RunUntilAndEmptySeeParkedPollers)
{
    // A parked poller nobody arms polls forever: the queue never
    // drains, and every poll up to the limit counts.
    EventQueue eq;
    eq.setPollPeriod(10);
    EXPECT_TRUE(eq.empty());
    eq.schedule(5, [&]() { eq.park(pollMeta(1)); });
    EXPECT_FALSE(eq.runUntil(1000));
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.now(), 995u);
    EXPECT_EQ(eq.eventsExecuted(), 1u + 99u);
}

TEST(EventQueueRetry, ForEachPendingListsRecordsWithTheirMeta)
{
    ParkedAt0 s;
    ASSERT_FALSE(s.eq.runUntil(35));
    std::vector<EventQueue::PendingEvent> pending;
    s.eq.forEachPending(
        [&](const EventQueue::PendingEvent &e) { pending.push_back(e); });
    ASSERT_EQ(pending.size(), 1u); // the armed poll
    EXPECT_EQ(pending[0].when, 40u);
    EXPECT_EQ(pending[0].meta.tag, EventTag::MeshRetry);
    EXPECT_EQ(pending[0].meta.a, 1u);
    EXPECT_EQ(pending[0].meta.b, 7u);
    std::vector<EventQueue::ParkedPoller> parked;
    s.eq.forEachParked(
        [&](const EventQueue::ParkedPoller &p) { parked.push_back(p); });
    ASSERT_EQ(parked.size(), 1u);
    EXPECT_TRUE(parked[0].armed);
    EXPECT_EQ(parked[0].base + 10, 40u);
    EXPECT_EQ(parked[0].meta.a, 1u);
}

TEST(EventQueueRetry, ArmedInTheTickItParkedPollsOnlyWhenArmed)
{
    // Parked and armed at tick 0: no virtual poll ever runs, and the
    // armed poll at 10 is the only poll counted, before and after it.
    EventQueue eq;
    eq.setPollPeriod(10);
    EventQueue::PollerId id = EventQueue::kNoPoller;
    std::uint64_t at5 = 0, atPoll = 0, at25 = 0;
    Tick polled = 0;
    eq.schedule(0, [&]() { id = eq.park(pollMeta(1)); });
    eq.schedule(0, [&]() {
        eq.arm(id, [&]() {
            polled = eq.now();
            atPoll = eq.eventsExecuted();
            eq.unpark(id);
        });
    });
    eq.schedule(5, [&]() { at5 = eq.eventsExecuted(); });
    eq.schedule(25, [&]() { at25 = eq.eventsExecuted(); });
    eq.run();
    EXPECT_EQ(at5, 3u);
    EXPECT_EQ(polled, 10u);
    EXPECT_EQ(atPoll, 4u);
    EXPECT_EQ(at25, 5u);
    EXPECT_EQ(eq.virtualPolls(), 0u);
}

struct DepLog : DepListener
{
    std::vector<std::tuple<std::uint64_t, std::uint64_t, Tick>> scheduled;
    std::vector<std::pair<std::uint64_t, Tick>> executed;

    void
    onSchedule(std::uint64_t seq, std::uint64_t parent, Tick when, Tick,
               const EventMeta &) override
    {
        scheduled.emplace_back(seq, parent, when);
    }

    void
    onExecute(std::uint64_t seq, Tick when) override
    {
        executed.emplace_back(seq, when);
    }
};

TEST(EventQueueRetry, ObserversSeeRecordsAsEvents)
{
    // Observers see the real events and the armed poll, a child of the
    // event that armed it; the virtual polls at 10, 20, 30 only count.
    DepLog dep;
    struct Count : check::Hooks
    {
        int n = 0;
        void onEventExecuted(Tick) override { ++n; }
    } hooks;
    EventQueue eq;
    eq.setDepListener(&dep);
    eq.setAuditHooks(&hooks);
    eq.setPollPeriod(10);
    EventQueue::PollerId id = EventQueue::kNoPoller;
    eq.schedule(0, [&]() { id = eq.park(pollMeta(1)); });
    eq.schedule(35, [&]() {
        eq.arm(id, [&]() { eq.unpark(id); });
    });
    eq.run();
    using S = std::tuple<std::uint64_t, std::uint64_t, Tick>;
    const std::vector<S> wantSched = {S{0, DepListener::kNoParent, 0},
                                      S{1, DepListener::kNoParent, 35},
                                      S{2, 1, 40}};
    EXPECT_EQ(dep.scheduled, wantSched);
    using E = std::pair<std::uint64_t, Tick>;
    const std::vector<E> wantExec = {E{0, 0}, E{1, 35}, E{2, 40}};
    EXPECT_EQ(dep.executed, wantExec);
    EXPECT_EQ(hooks.n, 3);
    EXPECT_EQ(eq.eventsExecuted(), 6u);
}

TEST(EventQueueRetry, TieBreakOrdersEqualTicksByPriorityThenSeq)
{
    // E is scheduled for tick 10 before the poller parks, so the poll
    // at 10 runs after E; under tie-break perturbation E draws a random
    // priority and the poll, which draws none, sorts as 0 and goes
    // first. E counts itself and the park, and the poll if it ran.
    for (bool perturbed : {false, true}) {
        SCOPED_TRACE(perturbed);
        EventQueue eq;
        if (perturbed)
            eq.setTieBreak(99);
        eq.setPollPeriod(10);
        std::uint64_t countInE = 0;
        eq.schedule(10, [&]() { countInE = eq.eventsExecuted(); });
        eq.schedule(0, [&]() { eq.park(pollMeta(1)); });
        ASSERT_TRUE(eq.step()); // the park
        ASSERT_TRUE(eq.step()); // E
        EXPECT_EQ(eq.now(), 10u);
        EXPECT_EQ(countInE, perturbed ? 3u : 2u);
        EXPECT_EQ(eq.eventsExecuted(), countInE);
    }
}

TEST(EventQueueRetryDeath, PeriodChangeWhileParkedPanics)
{
    // Phase classes are laid out by period: it may change only while
    // nothing is parked, and setting the same period is a no-op.
    EventQueue eq;
    eq.setPollPeriod(10);
    eq.setPollPeriod(7);
    EXPECT_EQ(eq.pollPeriod(), 7u);
    EventQueue::PollerId id = EventQueue::kNoPoller;
    eq.schedule(0, [&]() { id = eq.park(pollMeta(1)); });
    ASSERT_TRUE(eq.step());
    eq.setPollPeriod(7);
    EXPECT_DEATH(eq.setPollPeriod(8), "period cannot change while 1 "
                                      "pollers are parked");
    EXPECT_DEATH(eq.setPollPeriod(0), "must be positive");
    eq.schedule(20, [&]() {
        eq.arm(id, [&]() { eq.unpark(id); });
    });
    eq.run();
    EXPECT_TRUE(eq.empty());
    eq.setPollPeriod(8);
    EXPECT_EQ(eq.pollPeriod(), 8u);
}

} // namespace
} // namespace alewife
