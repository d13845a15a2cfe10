/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global EventQueue drives the whole machine. Events are ordered
 * by (tick, insertion sequence) so simulations are fully deterministic.
 * Events may be cancelled after scheduling (used by the processor model to
 * push back a pending resume when an interrupt handler steals cycles).
 *
 * The hot path is allocation-free in steady state. Callbacks are stored
 * in sim::InlineFn (no std::function heap capture), event state lives in
 * a slab-allocated free-list pool owned by the queue, and ordering is
 * kept by a sim::RadixQueue of trivially-copyable POD entries (O(1)
 * comparison-free insertion; see radix_queue.hh for why a binary heap
 * is the wrong structure here) — so schedule/fire/cancel recycle memory
 * instead of touching the allocator. Handles address their event as
 * (pool, slot index, generation): releasing a slot bumps its generation,
 * which invalidates every outstanding handle and stale heap entry for
 * the old event in one increment. The pool is kept alive by a
 * non-atomic intrusive refcount (queue + handles — the queue and its
 * handles are single-threaded by design, like the rest of a simulated
 * machine), so a handle may outlive its queue: it then reports
 * not-pending and cancel() is a no-op.
 *
 * NI-full retries take a second, slot-free path (scheduleRetry). A
 * packet parked behind a full network-interface queue is re-polled
 * every niRetryCycles, and under irregular message-passing traffic
 * those polls are the bulk of all events. Each one is a plain
 * (when, pri, seq, EventMeta) record in a FIFO beside the radix
 * queue, dispatched through the one handler net::Mesh registers —
 * no pool slot, no closure, no radix redistribution. Every retry
 * fires a fixed delay after now(), so records append in order and pop
 * in O(1). The dispatch loop merges the FIFO head with the radix
 * queue's live top under the same total (when, pri, seq) order, and a
 * record is in every other respect a real event: it draws a seq and
 * a tie-break priority, counts as executed, and is reported to the
 * DepListener, the audit hooks and forEachPending like any other.
 * Records cannot be cancelled (nothing ever cancels a retry).
 *
 * Schedule perturbation (setTieBreak): for fuzzing, same-tick events
 * scheduled for the *future* can be ordered by a seeded random priority
 * instead of insertion order. Events scheduled at the current tick keep
 * the documented contract — they run after already-queued same-tick
 * events — so perturbation only reorders interleavings the simulation
 * never promised. Off by default; default runs are bit-identical.
 *
 * An optional check::Hooks observer is notified after every executed
 * event (the invariant auditor runs its checks on settled state there).
 */

#ifndef ALEWIFE_SIM_EVENT_QUEUE_HH
#define ALEWIFE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <source_location>
#include <type_traits>
#include <vector>

#include "sim/event_tag.hh"
#include "sim/inline_fn.hh"
#include "sim/radix_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace alewife::check {
class Hooks;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife {

/**
 * Inline capture capacity of an event callback, in bytes. Sized so the
 * largest hot-path capture — a coherence lambda holding a ProtoMsg by
 * value — stays inline (coherence.cc asserts this at compile time).
 */
inline constexpr std::size_t kEventCallbackBytes = 104;

/** Callback type scheduled on the EventQueue. */
using EventFn = sim::InlineFn<kEventCallbackBytes>;

/**
 * Observer of the kernel's event *dependency tree* (obs::CritPathRecorder).
 *
 * Every schedule() made while some event is executing is a child of that
 * event: the simulation is single-threaded, so the (unique) parent of a
 * scheduled event is simply the event whose callback is on the stack at
 * schedule time. Because every blocking wait in the machine model is
 * released by an explicit event (completeOp / recheckCond / resume), this
 * tree is exactly the happens-before graph of one run. Sequence numbers
 * are assigned monotonically at schedule time, so child seq > parent seq
 * and a single forward pass over seq order is a valid topological replay.
 *
 * Detached cost is one predictable branch per schedule/execute.
 */
class DepListener
{
  public:
    /** parentSeq for events scheduled outside any event (roots). */
    static constexpr std::uint64_t kNoParent =
        std::numeric_limits<std::uint64_t>::max();

    virtual ~DepListener() = default;

    /**
     * A new event was scheduled. @p parentSeq is the seq of the event
     * executing right now, or kNoParent for roots. @p now is schedule
     * time, @p when the fire time (delta = when - now).
     */
    virtual void onSchedule(std::uint64_t seq, std::uint64_t parentSeq,
                            Tick when, Tick now,
                            const EventMeta &meta) = 0;

    /** Event @p seq is about to execute at tick @p when. Cancelled
     *  events never reach this. */
    virtual void onExecute(std::uint64_t seq, Tick when) = 0;
};

namespace detail {

/**
 * Slab-allocated free-list pool of event state, refcounted by one
 * EventQueue plus any outstanding EventHandles (non-atomic: a queue
 * and its handles live on one thread).
 *
 * A slot's generation counter is bumped every time the slot is
 * released; a handle or heap entry is live iff its recorded generation
 * still matches. Slabs are never freed, so slot addresses are stable
 * and steady-state scheduling never allocates.
 */
struct EventPool
{
    static constexpr std::uint32_t kNone = 0xffffffffu;
    static constexpr std::uint32_t kSlabBits = 8;
    static constexpr std::uint32_t kSlabSlots = 1u << kSlabBits;

    struct Slot
    {
        EventFn fn;
        std::uint64_t gen = 0;
        std::uint32_t nextFree = kNone;
        /** Typed record for checkpointing; Untagged for plain closures. */
        EventMeta meta;
        /** Schedule call site, recorded only for untagged events. */
        const char *siteFile = nullptr;
        std::uint32_t siteLine = 0;
    };

    std::vector<std::unique_ptr<Slot[]>> slabs;
    std::uint32_t freeHead = kNone;
    /** Intrusive refcount: the owning queue plus live handles. */
    std::uint32_t refs = 0;
    /** Cleared by ~EventQueue; dangling handles check it first. */
    bool queueAlive = true;

    Slot &
    slot(std::uint32_t idx)
    {
        return slabs[idx >> kSlabBits][idx & (kSlabSlots - 1)];
    }

    const Slot &
    slot(std::uint32_t idx) const
    {
        return slabs[idx >> kSlabBits][idx & (kSlabSlots - 1)];
    }

    /** Pop a free slot, growing by one slab when exhausted. */
    std::uint32_t
    allocate()
    {
        if (freeHead == kNone)
            addSlab();
        const std::uint32_t idx = freeHead;
        freeHead = slot(idx).nextFree;
        return idx;
    }

    /** Destroy the slot's callback and invalidate all references. */
    void
    release(std::uint32_t idx)
    {
        Slot &s = slot(idx);
        s.fn.reset();
        ++s.gen;
        s.nextFree = freeHead;
        freeHead = idx;
    }

    void addSlab();
};

/**
 * Non-atomic intrusive smart pointer to an EventPool. Dropping the
 * last reference deletes the pool; copies cost a plain increment, so
 * handle creation on the schedule() hot path stays a few instructions.
 */
class PoolRef
{
  public:
    PoolRef() = default;

    explicit PoolRef(EventPool *p) : p_(p) { acquire(); }

    PoolRef(const PoolRef &o) : p_(o.p_) { acquire(); }

    PoolRef(PoolRef &&o) noexcept : p_(o.p_) { o.p_ = nullptr; }

    PoolRef &
    operator=(const PoolRef &o)
    {
        if (this != &o) {
            release();
            p_ = o.p_;
            acquire();
        }
        return *this;
    }

    PoolRef &
    operator=(PoolRef &&o) noexcept
    {
        if (this != &o) {
            release();
            p_ = o.p_;
            o.p_ = nullptr;
        }
        return *this;
    }

    ~PoolRef() { release(); }

    EventPool *get() const { return p_; }
    EventPool *operator->() const { return p_; }

  private:
    void
    acquire()
    {
        if (p_)
            ++p_->refs;
    }

    void
    release()
    {
        if (p_ && --p_->refs == 0)
            delete p_;
    }

    EventPool *p_ = nullptr;
};

} // namespace detail

/**
 * Handle to a scheduled event. Copyable; copies refer to the same
 * event. Cancelling a dead handle is a no-op.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the event has neither fired nor been cancelled. */
    bool pending() const;

    /** Prevent the event from firing. Safe to call at any time. */
    void cancel();

  private:
    friend class EventQueue;

    EventHandle(const detail::PoolRef &pool, std::uint32_t idx,
                std::uint64_t gen)
        : pool_(pool), idx_(idx), gen_(gen)
    {
    }

    detail::PoolRef pool_;
    std::uint32_t idx_ = 0;
    std::uint64_t gen_ = 0;
};

/**
 * The global event queue. One instance per simulated machine.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when, as an *untagged*
     * event. The call site is recorded so a checkpoint attempted while
     * the event is pending can name the offender — tag the site with
     * an EventMeta (overload below) to make it checkpointable.
     *
     * The callable is constructed directly inside a pooled event slot
     * (no temporary EventFn, no relocate) — together with the inline
     * definition this keeps the steady-state schedule path free of
     * allocation and indirect calls.
     *
     * @pre when >= now() — enforced: scheduling in the past is a
     *      simulator bug and panics (when == now() is allowed; the
     *      event runs after already-queued same-tick events).
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventHandle
    schedule(Tick when, F &&fn,
             std::source_location site = std::source_location::current())
    {
        const std::uint32_t idx = allocateChecked(when);
        detail::EventPool::Slot &slot = pool_->slot(idx);
        slot.fn = std::forward<F>(fn);
        slot.meta = EventMeta{};
        slot.siteFile = site.file_name();
        slot.siteLine = site.line();
        return pushEntry(when, idx, slot.gen);
    }

    /**
     * Schedule a *typed* event: @p meta identifies the scheduling site
     * and payload, making the pending event serializable by src/ckpt/.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventHandle
    schedule(Tick when, EventMeta meta, F &&fn)
    {
        const std::uint32_t idx = allocateChecked(when);
        detail::EventPool::Slot &slot = pool_->slot(idx);
        slot.fn = std::forward<F>(fn);
        slot.meta = meta;
        slot.siteFile = nullptr;
        slot.siteLine = 0;
        return pushEntry(when, idx, slot.gen);
    }

    /** Overload for an already-built EventFn (moved into the slot). */
    EventHandle
    schedule(Tick when, EventFn fn,
             std::source_location site = std::source_location::current())
    {
        const std::uint32_t idx = allocateChecked(when);
        detail::EventPool::Slot &slot = pool_->slot(idx);
        slot.fn = std::move(fn);
        slot.meta = EventMeta{};
        slot.siteFile = site.file_name();
        slot.siteLine = site.line();
        return pushEntry(when, idx, slot.gen);
    }

    /** Schedule @p fn to run @p delay ticks from now (untagged). */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, F &&fn,
               std::source_location site = std::source_location::current())
    {
        return schedule(now_ + delay, std::forward<F>(fn), site);
    }

    /** Schedule a typed event @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, EventMeta meta, F &&fn)
    {
        return schedule(now_ + delay, meta, std::forward<F>(fn));
    }

    /** Dispatch target of retry records; @p ctx is the registrant. */
    using RetryHandler = void (*)(void *ctx, const EventMeta &meta);

    /**
     * Register the handler every retry record is dispatched to
     * (net::Mesh does so when it is constructed; one per queue).
     */
    void
    setRetryHandler(RetryHandler fn, void *ctx)
    {
        retryFn_ = fn;
        retryCtx_ = ctx;
    }

    /**
     * Schedule an NI-full redelivery at @p when as a slot-free retry
     * record (see the file comment). It is ordered, counted and
     * observed exactly like schedule(when, meta, fn) with a closure
     * that calls the retry handler on @p meta, but it has no handle
     * and cannot be cancelled.
     *
     * @pre when >= now() — enforced as for schedule().
     */
    void scheduleRetry(Tick when, const EventMeta &meta);

    /** Run until the queue is empty. Returns final time. */
    Tick run();

    /**
     * Run until the queue is empty or time would exceed @p limit.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool runUntil(Tick limit);

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** True if no live events remain. */
    bool empty() const;

    /**
     * Pop and run the next live event.
     * @return false if no live event remained
     */
    bool processOne() { return step(); }

    /**
     * Enable seeded random ordering among same-tick *future* events
     * (see the file comment). Call before scheduling; same seed gives
     * the same schedule, so perturbed runs stay replayable.
     */
    void setTieBreak(std::uint64_t seed);

    /** Observer notified after every executed event; may be null. */
    void setAuditHooks(check::Hooks *hooks) { hooks_ = hooks; }

    /** Attach the dependency-tree observer (at most one; null
     *  detaches). */
    void setDepListener(DepListener *dep) { dep_ = dep; }

    /** The attached dependency listener, or null. */
    DepListener *depListener() const { return dep_; }

    /**
     * Snapshot view of one live pending event (checkpoint capture).
     * `siteFile` is non-null only for untagged events.
     */
    struct PendingEvent
    {
        Tick when = 0;
        std::uint64_t pri = 0;
        std::uint64_t seq = 0;
        EventMeta meta;
        const char *siteFile = nullptr;
        std::uint32_t siteLine = 0;
    };

    /**
     * Invoke @p fn on every live (scheduled, uncancelled) event, in no
     * particular order; sort by `seq` for a canonical listing. Cheap
     * linear scan — checkpoint-path only, never on the hot path.
     */
    template <typename Fn>
    void
    forEachPending(Fn fn) const
    {
        heap_.forEach([&](const Entry &e) {
            const detail::EventPool::Slot &s = pool_->slot(e.idx);
            if (s.gen != e.gen)
                return; // cancelled
            fn(PendingEvent{e.when, e.pri, e.seq, s.meta, s.siteFile,
                            s.siteLine});
        });
        for (std::size_t i = retryHead_; i < retries_.size(); ++i) {
            const Retry &r = retries_[i];
            fn(PendingEvent{r.when, r.pri, r.seq, r.meta});
        }
    }

    /**
     * Time of the next live event without executing it, or nullopt if
     * the queue is drained. Discards dead entries encountered on the
     * way (like runUntil), so it may mutate internal bookkeeping but
     * never observable simulation state.
     */
    std::optional<Tick> peekNextTick();

  private:
    /** Checkpoint capture/verify reads private kernel state. */
    friend class alewife::ckpt::Access;

    /** Queue entry: trivially copyable, moves are plain word copies. */
    struct Entry
    {
        Tick when;
        std::uint64_t pri; ///< tie-break priority; 0 when unperturbed
        std::uint64_t seq;
        std::uint64_t gen;
        std::uint32_t idx;
    };

    /** A retry record: the radix Entry's key plus its typed record. */
    struct Retry
    {
        Tick when;
        std::uint64_t pri;
        std::uint64_t seq;
        EventMeta meta;
    };

    /** Total event order, shared by radix entries and retry records. */
    template <typename A, typename B>
    static bool
    before(const A &a, const B &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.pri != b.pri)
            return a.pri < b.pri;
        return a.seq < b.seq;
    }

    /** Pop and run the next live event; returns false if none. */
    bool step();

    /** Pop and run the retry FIFO's head. */
    void fireRetry();

    /** Observer bookkeeping after either kind of event ran. */
    void finishEvent();

    /** Past-scheduling precondition check + slot allocation. */
    std::uint32_t
    allocateChecked(Tick when)
    {
        if (when < now_) [[unlikely]]
            panicScheduledPast(when);
        return pool_->allocate();
    }

    /** Heap insertion + handle construction shared by schedule(). */
    EventHandle
    pushEntry(Tick when, std::uint32_t idx, std::uint64_t gen)
    {
        const std::uint64_t pri = priorityFor(when);
        const std::uint64_t seq = seq_++;
        if (dep_) [[unlikely]]
            dep_->onSchedule(seq, curExec_, when, now_,
                             pool_->slot(idx).meta);
        heap_.push(Entry{when, pri, seq, gen, idx});
        return EventHandle(pool_, idx, gen);
    }

    /** Tie-break priority of an event firing at @p when. */
    std::uint64_t
    priorityFor(Tick when)
    {
        // Same-tick events scheduled at now() keep FIFO order (they
        // must run after already-queued same-tick events), so only
        // future events get a random priority.
        if (!tieBreak_)
            return 0;
        return when == now_ ? std::numeric_limits<std::uint64_t>::max()
                            : rng_.next();
    }

    [[noreturn]] void panicScheduledPast(Tick when) const;

    /** True if @p e still refers to a scheduled, uncancelled event. */
    bool
    entryLive(const Entry &e) const
    {
        return pool_->slot(e.idx).gen == e.gen;
    }

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool tieBreak_ = false;
    Rng rng_{0};
    check::Hooks *hooks_ = nullptr;
    /** Dependency-tree observer, or null (the common case). */
    DepListener *dep_ = nullptr;
    /** Seq of the event whose callback is executing (parent of any
     *  event scheduled from inside it); kNoParent between events. */
    std::uint64_t curExec_ = DepListener::kNoParent;
    detail::PoolRef pool_;
    sim::RadixQueue<Entry> heap_;
    /** Pending retry records in (when, pri, seq) order from
     *  retryHead_; the consumed prefix is dropped in batches, and the
     *  vector is cleared whenever the last record pops, so empty()
     *  means no record is pending. */
    std::vector<Retry> retries_;
    std::size_t retryHead_ = 0;
    RetryHandler retryFn_ = nullptr;
    void *retryCtx_ = nullptr;
};

} // namespace alewife

#endif // ALEWIFE_SIM_EVENT_QUEUE_HH
