/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace alewife {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickPreservesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.schedule(5, [&]() { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h = eq.schedule(10, [&]() { ++fired; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h = eq.schedule(10, [&]() { ++fired; });
    eq.run();
    EXPECT_FALSE(h.pending());
    h.cancel(); // must not crash
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(100, [&]() { ++fired; });
    EXPECT_FALSE(eq.runUntil(50));
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.runUntil(200));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EmptyReflectsLiveEventsOnly)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EventHandle h = eq.schedule(10, []() {});
    EXPECT_FALSE(eq.empty());
    h.cancel();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ScheduleInUsesRelativeDelay)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&]() {
        eq.schedule(eq.now() + 5, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, []() {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, []() {}), "past");
}

TEST(EventQueueDeath, PastSchedulingFromCallbackPanics)
{
    // The precondition must hold inside callbacks too, where now() has
    // already advanced to the firing tick.
    EventQueue eq;
    EXPECT_DEATH(
        {
            eq.schedule(10, [&]() { eq.schedule(5, []() {}); });
            eq.run();
        },
        "past");
}

TEST(EventQueue, SchedulingAtNowIsAllowed)
{
    // Boundary of the precondition: when == now() is legal and the
    // event fires in the same processing pass, after queued peers.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() {
        order.push_back(1);
        eq.schedule(eq.now(), [&]() { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, CancelInsideOwnCallbackIsNoop)
{
    // By the time the callback runs the event is already "fired";
    // self-cancellation must neither crash nor un-count it.
    EventQueue eq;
    int fired = 0;
    EventHandle h;
    h = eq.schedule(10, [&]() {
        ++fired;
        EXPECT_FALSE(h.pending());
        h.cancel();
        EXPECT_FALSE(h.pending());
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.eventsExecuted(), 1u);
}

TEST(EventQueue, DoubleCancelAndDefaultHandleAreSafe)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h = eq.schedule(10, [&]() { ++fired; });
    h.cancel();
    h.cancel(); // second cancel: no-op
    EXPECT_FALSE(h.pending());

    EventHandle dead; // never scheduled
    EXPECT_FALSE(dead.pending());
    dead.cancel(); // must not crash
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, SameTickPeerCanCancelLaterEvent)
{
    // An event may cancel a peer scheduled for the same tick that has
    // not yet fired; the peer must be skipped, not resurrected.
    EventQueue eq;
    int fired = 0;
    EventHandle victim;
    eq.schedule(10, [&]() { victim.cancel(); });
    victim = eq.schedule(10, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.eventsExecuted(), 1u);
    EXPECT_FALSE(victim.pending());
}

TEST(EventQueue, HandleCopiesShareCancellationState)
{
    EventQueue eq;
    int fired = 0;
    EventHandle a = eq.schedule(10, [&]() { ++fired; });
    EventHandle b = a; // copies refer to the same scheduled event
    b.cancel();
    EXPECT_FALSE(a.pending());
    eq.run();
    EXPECT_EQ(fired, 0);
}

} // namespace
} // namespace alewife
