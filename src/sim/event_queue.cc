#include "sim/event_queue.hh"

#include <algorithm>
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

void
EventQueue::scheduleRetry(Tick when, const EventMeta &meta)
{
    if (when < now_) [[unlikely]]
        panicScheduledPast(when);
    if (!retryFn_) [[unlikely]]
        ALEWIFE_PANIC("retry scheduled with no retry handler registered");
    const Retry r{when, priorityFor(when), seq_++, meta};
    if (dep_) [[unlikely]]
        dep_->onSchedule(r.seq, curExec_, when, now_, meta);
    // Retries fire a fixed delay after now(), so a new record almost
    // always sorts last. It walks back only past a tie-break run of
    // equal `when`, or past records queued before a warm-start delta
    // lowered the retry delay.
    std::size_t pos = retries_.size();
    while (pos > retryHead_ && before(r, retries_[pos - 1]))
        --pos;
    retries_.insert(retries_.begin() + static_cast<std::ptrdiff_t>(pos),
                    r);
}

inline void
EventQueue::finishEvent()
{
    if (dep_) [[unlikely]]
        curExec_ = DepListener::kNoParent;
    if (hooks_)
        hooks_->onEventExecuted(now_);
}

void
EventQueue::fireRetry()
{
    const Retry r = retries_[retryHead_];
    // Drop the consumed prefix once it outweighs the live records, so
    // a FIFO that never drains stays bounded.
    if (++retryHead_ == retries_.size()) {
        retries_.clear();
        retryHead_ = 0;
    } else if (retryHead_ >= 4096 && 2 * retryHead_ >= retries_.size()) {
        retries_.erase(retries_.begin(),
                       retries_.begin()
                           + static_cast<std::ptrdiff_t>(retryHead_));
        retryHead_ = 0;
    }
    now_ = r.when;
    ++executed_;
    if (dep_) [[unlikely]] {
        curExec_ = r.seq;
        dep_->onExecute(r.seq, r.when);
    }
    retryFn_(retryCtx_, r.meta);
    finishEvent();
}

bool
EventQueue::step()
{
    while (!heap_.empty()) {
        const Entry e = heap_.top();
        detail::EventPool::Slot &slot = pool_->slot(e.idx);
        if (slot.gen != e.gen) {
            heap_.pop(); // cancelled
            continue;
        }
        if (!retries_.empty() && before(retries_[retryHead_], e))
            break;
        heap_.pop();
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
        finishEvent();
        return true;
    }
    if (retries_.empty())
        return false;
    fireRetry();
    return true;
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
    for (auto when = peekNextTick(); when; when = peekNextTick()) {
        if (*when > limit)
            return false;
        step();
    }
    return true;
}

std::optional<Tick>
EventQueue::peekNextTick()
{
    while (!heap_.empty() && !entryLive(heap_.top()))
        heap_.pop(); // cancelled
    if (retries_.empty()) {
        if (heap_.empty())
            return std::nullopt;
        return heap_.top().when;
    }
    const Tick retry = retries_[retryHead_].when;
    return heap_.empty() ? retry : std::min(retry, heap_.top().when);
}

bool
EventQueue::empty() const
{
    // Only used by tests; a linear scan over queued entries is fine.
    return retries_.empty()
           && !heap_.any([this](const Entry &e) { return entryLive(e); });
}

} // namespace alewife
