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
    if (!retryFn_) [[unlikely]]
        ALEWIFE_PANIC("retry scheduled with no retry handler registered");
    pushRetry(when, meta);
}

inline void
EventQueue::pushRetry(Tick when, const EventMeta &meta)
{
    if (when < now_) [[unlikely]]
        panicScheduledPast(when);
    const Retry r{when, priorityFor(when), seq_++, meta};
    if (dep_) [[unlikely]]
        dep_->onSchedule(r.seq, curExec_, when, now_, meta);
    if (retryCount_ > retryMask_) [[unlikely]]
        growRetries();
    // Retries fire a fixed delay after now(), so a new record almost
    // always sorts last. It walks back only past a tie-break run of
    // equal `when`, or past records queued before a warm-start delta
    // lowered the retry delay.
    std::size_t pos = retryHead_ + retryCount_;
    while (pos != retryHead_
           && before(r, retries_[(pos - 1) & retryMask_])) {
        retries_[pos & retryMask_] = retries_[(pos - 1) & retryMask_];
        --pos;
    }
    retries_[pos & retryMask_] = r;
    ++retryCount_;
}

void
EventQueue::growRetries()
{
    std::vector<Retry> bigger(2 * retries_.size());
    for (std::size_t i = 0; i < retryCount_; ++i)
        bigger[i] = retries_[(retryHead_ + i) & retryMask_];
    retries_ = std::move(bigger);
    retryMask_ = retries_.size() - 1;
    retryHead_ = 0;
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
EventQueue::fireRetries(const Entry *bound, Tick limit,
                        std::uint64_t budget)
{
    for (;;) {
        const Retry r = retries_[retryHead_];
        retryHead_ = (retryHead_ + 1) & retryMask_;
        --retryCount_;
        now_ = r.when;
        ++executed_;
        if (dep_) [[unlikely]] {
            curExec_ = r.seq;
            dep_->onExecute(r.seq, r.when);
        }
        const std::uint64_t seqBefore = seq_;
        const Tick rearm = retryFn_(retryCtx_, r.meta);
        if (rearm != kRetryDone)
            pushRetry(rearm, r.meta);
        finishEvent();
        // Go on only while the poll was rejected and nothing but its
        // re-arm was scheduled, so `bound` is still the radix queue's
        // top (a cancellation can only make the real top later).
        if (rearm == kRetryDone || seq_ != seqBefore + 1 || --budget == 0)
            return;
        const Retry &next = retries_[retryHead_];
        if (next.when > limit || (bound && !before(next, *bound)))
            return;
    }
}

bool
EventQueue::step(Tick limit, std::uint64_t budget)
{
    while (!heap_.empty()) {
        const Entry e = heap_.top();
        detail::EventPool::Slot &slot = pool_->slot(e.idx);
        if (slot.gen != e.gen) {
            heap_.pop(); // cancelled
            continue;
        }
        if (retryCount_ != 0 && before(retries_[retryHead_], e)) {
            fireRetries(&e, limit, budget);
            return true;
        }
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
    if (retryCount_ == 0)
        return false;
    fireRetries(nullptr, limit, budget);
    return true;
}

Tick
EventQueue::run()
{
    while (step(kNoLimit, kNoBudget)) {
    }
    return now_;
}

bool
EventQueue::runUntil(Tick limit)
{
    for (auto when = peekNextTick(); when; when = peekNextTick()) {
        if (*when > limit)
            return false;
        step(limit, kNoBudget);
    }
    return true;
}

std::optional<Tick>
EventQueue::peekNextTick()
{
    while (!heap_.empty() && !entryLive(heap_.top()))
        heap_.pop(); // cancelled
    if (retryCount_ == 0) {
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
    return retryCount_ == 0
           && !heap_.any([this](const Entry &e) { return entryLive(e); });
}

} // namespace alewife
