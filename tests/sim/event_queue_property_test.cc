/**
 * @file
 * Property test: the EventQueue against a naive reference model.
 * Random schedules, nested schedules, cancellations and retry records
 * must fire in exactly the order a (when, seq) reference predicts; the
 * EventQueueRetry cases pin the rest of the retry-record contract, and
 * the EventQueueStorm cases the loop that re-arms rejected records:
 * its order, its observers and the stepping contract (processOne runs
 * one event; runUntil and processStep never pass their limit).
 */

#include <gtest/gtest.h>

#include <algorithm>
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
        if (sp.recordDelay >= 0 && idLeft())
            eq.scheduleRetry(eq.now() + static_cast<Tick>(sp.recordDelay),
                             EventMeta{EventTag::MeshRetry,
                                       static_cast<std::uint64_t>(nextId++),
                                       0});
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
    eq.setRetryHandler(
        [](void *a, const EventMeta &m) {
            static_cast<Actor *>(a)->act(static_cast<int>(m.a));
            return EventQueue::kRetryDone;
        },
        &actor);
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
// Retry records (EventQueue::scheduleRetry)
// ---------------------------------------------------------------------

/** Retry handler that logs the id carried in EventMeta::a. */
Tick
logRetry(void *log, const EventMeta &m)
{
    static_cast<std::vector<int> *>(log)->push_back(static_cast<int>(m.a));
    return EventQueue::kRetryDone;
}

EventMeta
retryMeta(int id)
{
    return EventMeta{EventTag::MeshRetry, static_cast<std::uint64_t>(id),
                     0};
}

TEST(EventQueueRetry, TieBreakOrdersEqualTicksByPriorityThenSeq)
{
    EventQueue eq;
    eq.setTieBreak(7);
    std::vector<int> fired;
    eq.setRetryHandler(logRetry, &fired);
    // From inside one event, schedule records (odd ids) and closures
    // (even ids) that all fire at tick 100.
    eq.schedule(1, [&]() {
        for (int id = 0; id < 12; ++id) {
            if (id % 2)
                eq.scheduleRetry(100, retryMeta(id));
            else
                eq.schedule(100,
                            EventMeta{EventTag::ProcResume,
                                      static_cast<std::uint64_t>(id), 0},
                            [&fired, id]() { fired.push_back(id); });
        }
    });
    ASSERT_FALSE(eq.runUntil(1)); // stops with the tick-100 events queued

    std::vector<EventQueue::PendingEvent> pending;
    eq.forEachPending(
        [&](const EventQueue::PendingEvent &e) { pending.push_back(e); });
    ASSERT_EQ(pending.size(), 12u);
    std::sort(pending.begin(), pending.end(),
              [](const auto &a, const auto &b) {
                  return std::tie(a.pri, a.seq) < std::tie(b.pri, b.seq);
              });
    std::vector<int> expected;
    for (const auto &e : pending)
        expected.push_back(static_cast<int>(e.meta.a));

    eq.run();
    EXPECT_EQ(fired, expected);
    // The random priorities really reordered the records among
    // themselves (so a push walked back from the tail).
    std::vector<int> records;
    for (int id : fired)
        if (id % 2)
            records.push_back(id);
    EXPECT_FALSE(std::is_sorted(records.begin(), records.end()));
}

TEST(EventQueueRetry, ShorterDelayPushedLaterFiresFirst)
{
    // A lowered retry delay (a warm-start delta on niRetryCycles) makes
    // a new record sort before records already queued.
    EventQueue eq;
    std::vector<int> fired;
    eq.setRetryHandler(logRetry, &fired);
    eq.schedule(30, [&fired]() { fired.push_back(0); });
    eq.schedule(10, [&]() {
        eq.scheduleRetry(eq.now() + 50, retryMeta(1));
        eq.scheduleRetry(eq.now() + 20, retryMeta(2)); // ties tick 30
        eq.scheduleRetry(eq.now() + 35, retryMeta(3));
    });
    eq.run();
    EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 1}));
    EXPECT_EQ(eq.now(), 60u);
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}

TEST(EventQueueRetry, RunUntilPeekAndEmptySeeRecords)
{
    EventQueue eq;
    std::vector<int> fired;
    eq.setRetryHandler(logRetry, &fired);
    EXPECT_TRUE(eq.empty());
    eq.scheduleRetry(100, retryMeta(1));
    EXPECT_FALSE(eq.empty());
    eq.scheduleRetry(200, retryMeta(2));
    eq.schedule(250, [&fired]() { fired.push_back(3); });
    // The record is earlier than the radix queue's top.
    EXPECT_EQ(eq.peekNextTick(), std::optional<Tick>(100));

    EXPECT_FALSE(eq.runUntil(150));
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.peekNextTick(), std::optional<Tick>(200));

    // A closure earlier than the remaining record is next in line.
    eq.schedule(120, [&fired]() { fired.push_back(4); });
    EXPECT_EQ(eq.peekNextTick(), std::optional<Tick>(120));
    EXPECT_FALSE(eq.runUntil(220));
    EXPECT_EQ(fired, (std::vector<int>{1, 4, 2}));
    EXPECT_EQ(eq.peekNextTick(), std::optional<Tick>(250));

    EXPECT_TRUE(eq.runUntil(300));
    EXPECT_EQ(fired, (std::vector<int>{1, 4, 2, 3}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.peekNextTick(), std::nullopt);
}

TEST(EventQueueRetry, ForEachPendingListsRecordsWithTheirMeta)
{
    EventQueue eq;
    std::vector<int> fired;
    eq.setRetryHandler(logRetry, &fired);
    eq.schedule(5, EventMeta{EventTag::ProcResume, 3, 0}, []() {});
    eq.scheduleRetry(7, EventMeta{EventTag::MeshRetry, 0x1234, 9});

    std::vector<EventQueue::PendingEvent> pending;
    eq.forEachPending(
        [&](const EventQueue::PendingEvent &e) { pending.push_back(e); });
    std::sort(pending.begin(), pending.end(),
              [](const auto &a, const auto &b) { return a.seq < b.seq; });
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0].when, 5u);
    EXPECT_EQ(pending[0].meta.tag, EventTag::ProcResume);
    EXPECT_EQ(pending[1].when, 7u);
    EXPECT_EQ(pending[1].pri, 0u);
    EXPECT_EQ(pending[1].seq, 1u);
    EXPECT_EQ(pending[1].meta.tag, EventTag::MeshRetry);
    EXPECT_EQ(pending[1].meta.a, 0x1234u);
    EXPECT_EQ(pending[1].meta.b, 9u);
    EXPECT_EQ(pending[1].siteFile, nullptr);

    eq.run();
    int left = 0;
    eq.forEachPending([&](const EventQueue::PendingEvent &) { ++left; });
    EXPECT_EQ(left, 0);
}

struct DepLog : DepListener
{
    std::vector<std::tuple<std::uint64_t, std::uint64_t, Tick, Tick,
                           EventTag>>
        scheduled;
    std::vector<std::pair<std::uint64_t, Tick>> executed;

    void
    onSchedule(std::uint64_t seq, std::uint64_t parentSeq, Tick when,
               Tick now, const EventMeta &meta) override
    {
        scheduled.emplace_back(seq, parentSeq, when, now, meta.tag);
    }

    void
    onExecute(std::uint64_t seq, Tick when) override
    {
        executed.emplace_back(seq, when);
    }
};

struct ExecLog : check::Hooks
{
    std::vector<Tick> ticks;
    void onEventExecuted(Tick now) override { ticks.push_back(now); }
};

TEST(EventQueueRetry, ObserversSeeRecordsAsEvents)
{
    EventQueue eq;
    DepLog dep;
    ExecLog hooks;
    eq.setDepListener(&dep);
    eq.setAuditHooks(&hooks);
    struct Ctx
    {
        EventQueue &eq;
        int records = 0;
    } ctx{eq};
    eq.setRetryHandler(
        [](void *c, const EventMeta &) {
            auto &x = *static_cast<Ctx *>(c);
            ++x.records;
            x.eq.schedule(x.eq.now() + 4, []() {});
            return EventQueue::kRetryDone;
        },
        &ctx);
    eq.schedule(10, [&]() { eq.scheduleRetry(eq.now() + 16, retryMeta(0)); });
    eq.run();

    constexpr auto root = DepListener::kNoParent;
    using S = std::tuple<std::uint64_t, std::uint64_t, Tick, Tick, EventTag>;
    EXPECT_EQ(dep.scheduled,
              (std::vector<S>{{0, root, 10, 0, EventTag::Untagged},
                              {1, 0, 26, 10, EventTag::MeshRetry},
                              {2, 1, 30, 26, EventTag::Untagged}}));
    EXPECT_EQ(dep.executed,
              (std::vector<std::pair<std::uint64_t, Tick>>{
                  {0, 10}, {1, 26}, {2, 30}}));
    EXPECT_EQ(hooks.ticks, (std::vector<Tick>{10, 26, 30}));
    EXPECT_EQ(ctx.records, 1);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

// ---------------------------------------------------------------------
// Poll storms: rejected records re-armed by the queue itself
// ---------------------------------------------------------------------

/**
 * A poll storm: each of kRecords records is rejected kRejects times
 * (its handler returns a re-arm tick kDelay ahead) before the handler
 * finishes it, among closures on a coarser grid that tie with some of
 * the polls. Every firing is logged as (id, tick); closure c logs -1-c.
 */
struct Storm
{
    static constexpr int kRecords = 5;
    static constexpr int kRejects = 40;
    static constexpr Tick kDelay = 4;
    static constexpr int kClosures = 30;

    using Log = std::vector<std::pair<int, Tick>>;

    EventQueue eq;
    std::vector<int> rejectsLeft = std::vector<int>(kRecords, kRejects);
    Log log;

    static Tick closureTick(int c) { return 6 * static_cast<Tick>(c) + 2; }
    static Tick recordTick(int id) { return 2 * static_cast<Tick>(id); }

    Storm()
    {
        eq.setRetryHandler(
            [](void *s, const EventMeta &m) {
                auto &st = *static_cast<Storm *>(s);
                const int id = static_cast<int>(m.a);
                st.log.emplace_back(id, st.eq.now());
                if (st.rejectsLeft[id]-- > 0)
                    return st.eq.now() + kDelay;
                return EventQueue::kRetryDone;
            },
            this);
        for (int c = 0; c < kClosures; ++c)
            eq.schedule(closureTick(c),
                        [this, c]() { log.emplace_back(-1 - c, eq.now()); });
        for (int id = 0; id < kRecords; ++id)
            eq.scheduleRetry(recordTick(id), retryMeta(id));
    }

    /** The (when, seq) reference order of every firing. */
    static Log
    expected()
    {
        std::vector<RefEvent> pending;
        std::uint64_t seq = 0;
        for (int c = 0; c < kClosures; ++c)
            pending.push_back({closureTick(c), seq++, -1 - c});
        for (int id = 0; id < kRecords; ++id)
            pending.push_back({recordTick(id), seq++, id});
        std::vector<int> left(kRecords, kRejects);
        Log out;
        while (!pending.empty()) {
            const auto it = std::min_element(
                pending.begin(), pending.end(),
                [](const RefEvent &a, const RefEvent &b) {
                    return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
                });
            const RefEvent e = *it;
            pending.erase(it);
            out.emplace_back(e.id, e.when);
            if (e.id >= 0 && left[e.id]-- > 0)
                pending.push_back({e.when + kDelay, seq++, e.id});
        }
        return out;
    }
};

TEST(EventQueueStorm, RunFiresEveryPollInReferenceOrder)
{
    Storm s;
    const Storm::Log want = Storm::expected();
    ASSERT_EQ(want.size(),
              static_cast<std::size_t>(Storm::kClosures
                                       + Storm::kRecords
                                             * (Storm::kRejects + 1)));
    s.eq.run();
    EXPECT_EQ(s.log, want);
    EXPECT_EQ(s.eq.eventsExecuted(), want.size());
    EXPECT_TRUE(s.eq.empty());
}

TEST(EventQueueStorm, ProcessOneRunsExactlyOneEvent)
{
    Storm s;
    for (std::uint64_t n = 1;; ++n) {
        if (!s.eq.processOne())
            break;
        ASSERT_EQ(s.eq.eventsExecuted(), n);
        ASSERT_EQ(s.log.size(), n);
    }
    EXPECT_EQ(s.log, Storm::expected());
}

TEST(EventQueueStorm, RunUntilAndProcessStepStopAtTheirLimit)
{
    const Storm::Log want = Storm::expected();
    const auto dueBy = [&](Tick limit) {
        return static_cast<std::size_t>(std::count_if(
            want.begin(), want.end(),
            [limit](const auto &f) { return f.second <= limit; }));
    };
    Storm viaRunUntil;
    Storm viaStep;
    for (Tick limit = 0; limit < want.back().second + 3; limit += 3) {
        viaRunUntil.eq.runUntil(limit);
        while (viaStep.eq.peekNextTick()
               && *viaStep.eq.peekNextTick() <= limit)
            viaStep.eq.processStep(limit);
        for (Storm *s : {&viaRunUntil, &viaStep}) {
            ASSERT_EQ(s->log.size(), dueBy(limit)) << "limit " << limit;
            ASSERT_EQ(s->eq.eventsExecuted(), s->log.size());
            ASSERT_TRUE(std::equal(s->log.begin(), s->log.end(),
                                   want.begin()));
            const auto next = s->eq.peekNextTick();
            ASSERT_TRUE(!next || *next > limit) << "limit " << limit;
        }
    }
    EXPECT_EQ(viaRunUntil.log, want);
    EXPECT_EQ(viaStep.log, want);
}

TEST(EventQueueStorm, ObserversSeeEveryPollAndReArm)
{
    Storm s;
    DepLog dep;
    ExecLog hooks;
    s.eq.setDepListener(&dep);
    s.eq.setAuditHooks(&hooks);
    s.eq.run();

    const Storm::Log want = Storm::expected();
    ASSERT_EQ(dep.executed.size(), want.size());
    ASSERT_EQ(hooks.ticks.size(), want.size());
    std::map<std::uint64_t, Tick> firedAt;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(dep.executed[i].second, want[i].second);
        EXPECT_EQ(hooks.ticks[i], want[i].second);
        firedAt[dep.executed[i].first] = dep.executed[i].second;
    }
    EXPECT_EQ(firedAt.size(), want.size()); // one onExecute per seq
    // Every re-arm is a child of the poll that was rejected.
    int rearms = 0;
    for (const auto &[seq, parent, when, now, tag] : dep.scheduled) {
        if (parent == DepListener::kNoParent)
            continue;
        ++rearms;
        EXPECT_EQ(tag, EventTag::MeshRetry);
        ASSERT_TRUE(firedAt.count(parent));
        EXPECT_EQ(firedAt[parent], now);
        EXPECT_EQ(when, now + Storm::kDelay);
    }
    EXPECT_EQ(rearms, Storm::kRecords * Storm::kRejects);
}

TEST(EventQueueStorm, RejectionThatSchedulesEndsTheRun)
{
    // A handler may schedule while it rejects (a mesh sink that never
    // publishes "full" is asked on every poll). What it schedules can
    // precede the next record, so the run of polls must stop there.
    EventQueue eq;
    struct Ctx
    {
        EventQueue &eq;
        Storm::Log log;
        int rejectsLeft = 3;
    } ctx{eq, {}};
    eq.setRetryHandler(
        [](void *c, const EventMeta &) {
            auto &x = *static_cast<Ctx *>(c);
            x.log.emplace_back(0, x.eq.now());
            x.eq.schedule(x.eq.now() + 1,
                          [&x]() { x.log.emplace_back(-1, x.eq.now()); });
            if (x.rejectsLeft-- > 0)
                return x.eq.now() + 4;
            return EventQueue::kRetryDone;
        },
        &ctx);
    eq.schedule(1000, []() {});
    eq.scheduleRetry(0, retryMeta(0));
    eq.run();
    EXPECT_EQ(ctx.log, (Storm::Log{{0, 0},
                                   {-1, 1},
                                   {0, 4},
                                   {-1, 5},
                                   {0, 8},
                                   {-1, 9},
                                   {0, 12},
                                   {-1, 13}}));
}

} // namespace
} // namespace alewife
