#include "sim/event_queue.hh"

#include <limits>

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife {

namespace detail {

void
EventPool::addSlab()
{
    const auto base =
        static_cast<std::uint32_t>(slabs.size()) * kSlabSlots;
    slabs.push_back(std::make_unique<Slot[]>(kSlabSlots));
    // Chain the fresh slots onto the free list, last-first so slot
    // `base` is handed out next (keeps low indices hot).
    for (std::uint32_t i = kSlabSlots; i-- > 0;) {
        Slot &s = slot(base + i);
        s.nextFree = freeHead;
        freeHead = base + i;
    }
}

} // namespace detail

bool
EventHandle::pending() const
{
    detail::EventPool *pool = pool_.get();
    return pool && pool->queueAlive && pool->slot(idx_).gen == gen_;
}

void
EventHandle::cancel()
{
    detail::EventPool *pool = pool_.get();
    if (pool && pool->queueAlive && pool->slot(idx_).gen == gen_)
        pool->release(idx_); // stale heap entry is skipped on pop
}

EventQueue::EventQueue() : pool_(detail::PoolRef(new detail::EventPool))
{
}

EventQueue::~EventQueue()
{
    // Outstanding handles keep the pool's memory alive (via their
    // refcount) but must see their events as dead from here on.
    pool_->queueAlive = false;
}

void
EventQueue::panicScheduledPast(Tick when) const
{
    ALEWIFE_PANIC("event scheduled in the past: ", when, " < ", now_);
}

void
EventQueue::setTieBreak(std::uint64_t seed)
{
    tieBreak_ = true;
    rng_ = Rng(seed);
}

bool
EventQueue::step()
{
    while (!heap_.empty()) {
        const Entry e = heap_.top();
        heap_.pop();
        detail::EventPool::Slot &slot = pool_->slot(e.idx);
        if (slot.gen != e.gen)
            continue; // cancelled
        now_ = e.when;
        ++executed_;
        // Bump the generation before invoking: every outstanding handle
        // (including the event's own — self-cancellation is a no-op)
        // and stale heap entry is dead from here on. The callback runs
        // in place in its slot, which is pushed back on the free list
        // only afterwards, so it cannot be handed out mid-execution.
        // Slot addresses are stable across addSlab, so `slot` stays
        // valid even if the callback grows the pool.
        ++slot.gen;
        if (dep_) [[unlikely]] {
            curExec_ = e.seq;
            dep_->onExecute(e.seq, e.when);
        }
        slot.fn();
        slot.fn.reset();
        slot.nextFree = pool_->freeHead;
        pool_->freeHead = e.idx;
        if (dep_) [[unlikely]]
            curExec_ = DepListener::kNoParent;
        if (hooks_)
            hooks_->onEventExecuted(now_);
        return true;
    }
    return false;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return now_;
}

bool
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty()) {
        // Skip over cancelled entries without advancing time.
        if (!entryLive(heap_.top())) {
            heap_.pop();
            continue;
        }
        if (heap_.top().when > limit)
            return false;
        step();
    }
    return true;
}

std::optional<Tick>
EventQueue::peekNextTick()
{
    while (!heap_.empty()) {
        if (!entryLive(heap_.top())) {
            heap_.pop();
            continue;
        }
        return heap_.top().when;
    }
    return std::nullopt;
}

bool
EventQueue::empty() const
{
    // Only used by tests; a linear scan over queued entries is fine.
    return !heap_.any([this](const Entry &e) { return entryLive(e); });
}

} // namespace alewife
