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

// ---------------------------------------------------------------------
// Parked pollers
// ---------------------------------------------------------------------

std::uint64_t
EventQueue::keyAfter(Tick g) const
{
    auto it = std::upper_bound(
        keys_.begin() + static_cast<std::ptrdiff_t>(keysHead_), keys_.end(),
        g, [](Tick t, const std::pair<Tick, std::uint64_t> &k) {
            return t < k.first;
        });
    if (it == keys_.begin() + static_cast<std::ptrdiff_t>(keysHead_))
        [[unlikely]]
        ALEWIFE_PANIC("parked poll key at tick ", g, " no longer logged");
    return std::prev(it)->second;
}

void
EventQueue::advanceTo(Tick t)
{
    if (t == now_)
        return;
    // pollsIn() counts these once now_ has passed.
    settledNow_ = 0;
    joinedNow_ = 0;
    if (parked_ != 0) {
        keys_.emplace_back(now_, seq_);
        // Keep the last entry at or before t - period_: no lookup
        // reaches further back than one period.
        const Tick floor = t > period_ ? t - period_ : 0;
        while (keysHead_ + 1 < keys_.size()
               && keys_[keysHead_ + 1].first <= floor)
            ++keysHead_;
        if (keysHead_ > 64 && 2 * keysHead_ > keys_.size()) {
            keys_.erase(keys_.begin(),
                        keys_.begin()
                            + static_cast<std::ptrdiff_t>(keysHead_));
            keysHead_ = 0;
        }
    }
    now_ = t;
}

std::uint64_t
EventQueue::phaseCount(Tick phases) const
{
    std::uint64_t n = 0;
    for (Tick i = phases; i > 0; i -= i & (~i + 1))
        n += phaseTree_[i - 1];
    return n;
}

std::uint64_t
EventQueue::pollsIn(Tick from, Tick to) const
{
    // Every virtual poller polls once a period, at its phase.
    const Tick span = to - from;
    std::uint64_t n = virtual_ * (span / period_);
    const Tick a = (from + span / period_ * period_) % period_;
    const Tick b = to % period_;
    if (a < b)
        n += phaseCount(b) - phaseCount(a);
    else if (a > b)
        n += phaseCount(period_) - phaseCount(a) + phaseCount(b);
    return n;
}

void
EventQueue::countPolls()
{
    counted_ += pollsIn(countedTo_, now_);
    countedTo_ = now_;
}

void
EventQueue::addVirtual(const Poller &p)
{
    countPolls();
    for (Tick i = p.phase + 1; i <= period_; i += i & (~i + 1))
        ++phaseTree_[i - 1];
    ++virtual_;
    // pollsIn() will count every phase tick from now_ on, but the first
    // poll is a period out: take the one at now_ back now, and count it
    // in again (joinedNow_) until pollsIn() has passed it.
    --counted_;
    ++joinedNow_;
}

void
EventQueue::dropVirtual(const Poller &p)
{
    countPolls();
    for (Tick i = p.phase + 1; i <= period_; i += i & (~i + 1))
        --phaseTree_[i - 1];
    --virtual_;
    if (p.origin == now_) {
        // It turned virtual at now_: pollsIn() will not reach the tick
        // addVirtual() took back.
        ++counted_;
        --joinedNow_;
    }
    if (p.base == now_ && p.origin != now_) {
        // Its poll at now_ ran; pollsIn() will no longer count it.
        --settledNow_;
        ++counted_;
    }
}

void
EventQueue::settleAt(Poller &p)
{
    p.base = now_;
    p.key = seq_;
    ++settledNow_;
}

std::uint64_t
EventQueue::virtualPolls() const
{
    return counted_ + pollsIn(countedTo_, now_) + settledNow_ + joinedNow_;
}

void
EventQueue::linkBefore(ClassList &cls, PollerId id, PollerId at)
{
    Poller &p = pollers_[id];
    p.next = at;
    p.prev = at == kNoPoller ? cls.tail : pollers_[at].prev;
    (p.prev == kNoPoller ? cls.head : pollers_[p.prev].next) = id;
    (at == kNoPoller ? cls.tail : pollers_[at].prev) = id;
}

void
EventQueue::unlink(ClassList &cls, PollerId id)
{
    const Poller &p = pollers_[id];
    (p.prev == kNoPoller ? cls.head : pollers_[p.prev].next) = p.next;
    (p.next == kNoPoller ? cls.tail : pollers_[p.next].prev) = p.prev;
}

bool
EventQueue::classBefore(PollerId a, PollerId b) const
{
    for (PollerId id : members(classes_[pollers_[a].phase])) {
        if (id == a)
            return true;
        if (id == b)
            return false;
    }
    return false;
}

std::optional<Tick>
EventQueue::latestPoll(std::span<const PollerId> ids) const
{
    const Tick np = nowPhase();
    std::optional<Tick> latest;
    for (PollerId id : ids) {
        const Poller &p = pollers_[id];
        if (p.slot != kNoSlot)
            continue;
        Tick last = p.base;
        if (p.base < now_ && p.origin < now_) {
            // The last phase tick before now_ (origin, or a later one).
            last = now_ - (np > p.phase ? np - p.phase
                                        : np + period_ - p.phase);
        }
        if (!latest || last > *latest)
            latest = last;
    }
    return latest;
}

EventQueue::PollerId
EventQueue::firstToPoll(std::span<const PollerId> ids) const
{
    const Tick np = nowPhase();
    PollerId first = kNoPoller;
    Tick at = 0;
    for (PollerId id : ids) {
        const Tick t = nextPollTick(pollers_[id], np);
        if (first == kNoPoller || t < at
            || (t == at && classBefore(id, first))) {
            first = id;
            at = t;
        }
    }
    return first;
}

EventQueue::PollerId
EventQueue::park(const EventMeta &meta)
{
    PollerId id;
    if (freePollers_.empty()) {
        id = static_cast<PollerId>(pollers_.size());
        pollers_.emplace_back();
    } else {
        id = freePollers_.back();
        freePollers_.pop_back();
    }
    Poller &p = pollers_[id];
    p = Poller{now_, nowPhase(), now_, seq_, kNoSlot, 0, meta};
    ++parked_;
    addVirtual(p);
    // After the members whose poll at now_ already ran.
    ClassList &cls = classNow();
    PollerId at = cls.head;
    while (at != kNoPoller && pollers_[at].base >= now_)
        at = pollers_[at].next;
    linkBefore(cls, id, at);
    return id;
}

void
EventQueue::repark(PollerId id)
{
    Poller &p = pollers_[id];
    p.origin = p.base = now_;
    p.phase = nowPhase();
    p.key = seq_;
    addVirtual(p);
}

void
EventQueue::unpark(PollerId id)
{
    unlink(classes_[pollers_[id].phase], id);
    freePollers_.push_back(id);
    --parked_;
    if (parked_ == 0) {
        keys_.clear();
        keysHead_ = 0;
    }
}

void
EventQueue::arm(PollerId id, EventFn fn)
{
    Poller &p = pollers_[id];
    // Its next poll; a poll that ran lazily a period before it keyed it
    // with C(that tick).
    const Tick when = nextPollTick(p, nowPhase());
    const std::uint64_t key =
        when == p.base + period_ ? p.key : keyAfter(when - period_);
    dropVirtual(p);
    // Make the armed poll explicit: it is the one after base (a phase
    // tick, so the phase stays).
    p.origin = p.base = when - period_;
    p.key = key;
    p.slot = pool_.allocate();
    detail::EventPool::Slot &slot = pool_.slot(p.slot);
    slot.fn = std::move(fn);
    slot.meta = p.meta;
    p.armSeq = seq_++;
    if (dep_) [[unlikely]]
        dep_->onSchedule(p.armSeq, curExec_, when, now_, p.meta);
    armed_.push_back(id);
}

EventQueue::PollerId
EventQueue::firstArmed() const
{
    PollerId best = kNoPoller;
    for (PollerId id : armed_) {
        if (best == kNoPoller) {
            best = id;
            continue;
        }
        const Poller &a = pollers_[id];
        const Poller &b = pollers_[best];
        if (a.base != b.base ? a.base < b.base : classBefore(id, best))
            best = id;
    }
    return best;
}

bool
EventQueue::armedBefore(PollerId a, const Entry &e) const
{
    const Poller &p = pollers_[a];
    const Tick when = p.base + period_;
    if (when != e.when)
        return when < e.when;
    return e.pri != 0 || p.key <= e.seq;
}

void
EventQueue::settleBefore(std::uint64_t pri, std::uint64_t seq)
{
    const ClassList &cls = classNow();
    if (cls.head == kNoPoller)
        return;
    std::uint64_t lazyKey = 0;
    bool haveLazy = false;
    for (PollerId id : members(cls)) {
        Poller &p = pollers_[id];
        if (p.base >= now_)
            continue; // its poll at now_ ran, or it has none
        std::uint64_t key = p.key;
        if (p.base + period_ != now_) {
            // Its poll a period ago ran lazily, after that tick's
            // last real event.
            if (!haveLazy) {
                lazyKey = keyAfter(now_ - period_);
                haveLazy = true;
            }
            key = lazyKey;
        }
        if (pri == 0 && key > seq)
            break; // keys never fall along the class
        settleAt(p);
    }
}

void
EventQueue::setPollPeriod(Tick period)
{
    if (period == 0)
        ALEWIFE_PANIC("parked-poll period must be positive");
    if (period == period_)
        return;
    // Phase classes and the per-phase count are laid out by period.
    if (parked_ != 0)
        ALEWIFE_PANIC("parked-poll period cannot change while ", parked_,
                      " pollers are parked");
    period_ = period;
    phaseAt_ = now_;
    nowPhase_ = now_ % period_;
    classes_.assign(period, {});
    phaseTree_.assign(period, 0);
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

inline void
EventQueue::finishEvent()
{
    if (dep_) [[unlikely]]
        curExec_ = DepListener::kNoParent;
    if (hooks_)
        hooks_->onEventExecuted(now_);
}

const EventQueue::Entry *
EventQueue::liveTop()
{
    while (!heap_.empty()) {
        const Entry &e = heap_.top();
        if (entryLive(e))
            return &e;
        heap_.pop(); // cancelled
    }
    return nullptr;
}

EventQueue::Next
EventQueue::peekNext()
{
    Next n;
    n.entry = liveTop();
    if (n.entry)
        n.when = n.entry->when;
    if (!armed_.empty()) [[unlikely]] {
        const PollerId a = firstArmed();
        if (!n.entry || armedBefore(a, *n.entry)) {
            n.entry = nullptr;
            n.armed = a;
            n.when = pollers_[a].base + period_;
        }
    }
    return n;
}

void
EventQueue::runNext(const Next &n)
{
    if (n.armed != kNoPoller) {
        Poller &p = pollers_[n.armed];
        advanceTo(n.when);
        // The class members ahead of it poll first.
        for (PollerId id : members(classNow())) {
            if (id == n.armed)
                break;
            Poller &q = pollers_[id];
            if (q.base < now_)
                settleAt(q);
        }
        armed_.erase(std::find(armed_.begin(), armed_.end(), n.armed));
        const std::uint32_t idx = p.slot;
        p.slot = kNoSlot;
        ++executed_;
        if (dep_) [[unlikely]] {
            curExec_ = p.armSeq;
            dep_->onExecute(p.armSeq, now_);
        }
        detail::EventPool::Slot &slot = pool_.slot(idx);
        ++slot.gen;
        slot.fn();
        slot.fn.reset();
        slot.nextFree = pool_.freeHead;
        pool_.freeHead = idx;
        finishEvent();
        return;
    }
    const Entry e = *n.entry;
    heap_.pop();
    advanceTo(e.when);
    if (parked_ != 0)
        settleBefore(e.pri, e.seq);
    ++executed_;
    // Bump the generation before invoking: every outstanding handle
    // (including the event's own — self-cancellation is a no-op) and
    // stale heap entry is dead from here on. The callback runs in
    // place in its slot, which is pushed back on the free list only
    // afterwards, so it cannot be handed out mid-execution. Slot
    // addresses are stable across addSlab, so `slot` stays valid even
    // if the callback grows the pool.
    detail::EventPool::Slot &slot = pool_.slot(e.idx);
    ++slot.gen;
    if (dep_) [[unlikely]] {
        curExec_ = e.seq;
        dep_->onExecute(e.seq, e.when);
    }
    slot.fn();
    slot.fn.reset();
    slot.nextFree = pool_.freeHead;
    pool_.freeHead = e.idx;
    finishEvent();
}

bool
EventQueue::step()
{
    const Next n = peekNext();
    if (!n.any())
        return false;
    runNext(n);
    return true;
}

void
EventQueue::settleThrough(Tick limit)
{
    if (parked_ == 0 || limit < now_)
        return;
    // The latest virtual poll due by limit.
    const Tick np = nowPhase();
    Tick last = 0;
    bool any = false;
    for (const ClassList &cls : classes_) {
        for (PollerId id : members(cls)) {
            if (pollers_[id].slot != kNoSlot)
                continue;
            const Tick next = nextPollTick(pollers_[id], np);
            if (next > limit)
                continue;
            const Tick at = next + (limit - next) / period_ * period_;
            if (!any || at > last)
                last = at;
            any = true;
        }
    }
    if (!any)
        return;
    advanceTo(last);
    for (PollerId id : members(classNow())) {
        Poller &p = pollers_[id];
        if (p.base < now_ && p.slot == kNoSlot)
            settleAt(p);
    }
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
    for (Next n = peekNext(); n.any(); n = peekNext()) {
        if (n.when > limit) {
            settleThrough(limit);
            return false;
        }
        runNext(n);
    }
    settleThrough(limit);
    return parked_ == 0;
}

bool
EventQueue::empty() const
{
    // Only used by tests; a linear scan over queued entries is fine.
    return parked_ == 0
           && !heap_.any([this](const Entry &e) { return entryLive(e); });
}

} // namespace alewife
