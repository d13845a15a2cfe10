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
 * the old event in one increment. A handle is three plain words and
 * points into its queue, so it must not be used once the queue is
 * destroyed (a Machine destroys its nodes, which hold the only
 * long-lived handles, before its queue).
 *
 * Parked pollers. A packet bounced by a full network-interface queue
 * re-polls it every pollPeriod() ticks, and under irregular message
 * passing those polls are the bulk of all events. They are not queued:
 * park() records the poller, and a poll that only finds its NI still
 * full is *virtual* — counted in eventsExecuted(), never dispatched.
 * Only a poll that may succeed is a real record: when the NI has room,
 * net::Mesh arm()s its earliest waiter, and the armed poll runs like
 * any other event, then unpark()s or repark()s its poller.
 *
 * Exact order. The polls are accounted as if each were an event with
 * the (tick, seq) it would have had, so every simulated result is the
 * same as when each poll ran on its own:
 *  - `seq_` numbers real schedules only. A poll carries the key c,
 *    the value seq_ had when its poller's previous poll (or its park)
 *    ran; it runs before a real event at the same tick with seq s iff
 *    c <= s (and before every same-tick event of nonzero tie-break
 *    priority: a poll draws no priority, it sorts as 0).
 *  - Polls at one tick share a phase, tick mod pollPeriod(). Each
 *    phase class lists its pollers in poll order; a poller parked at
 *    tick t goes after the members whose poll at t already ran. The
 *    lists are linked through the pollers, so parking allocates only
 *    when the poller table grows.
 *  - Keys are lazy: a poll that ran after the last real event of its
 *    tick g has key C(g), the seq_ after that event, read back from a
 *    ring of (tick, seq_) appended whenever now() advances while
 *    anything is parked.
 *  - Before a real event at tick t runs, the members of t's class
 *    whose poll precedes it are settled: their poll at t is marked
 *    run, with the current seq_ as next key. Nothing parked: one
 *    branch per event; else a load, plus a modulo when t is a new
 *    tick.
 *  - Each poller stores its phase, set with its origin. now() mod the
 *    period is reduced at most once per tick and kept, so the scans
 *    net::Mesh makes of a node's or a link's parked packets
 *    (firstToPoll(), latestPoll()) compare instead of divide.
 *
 * Stepping: step(), run() and runUntil() run real events and account
 * the virtual polls before each lazily, so every pause is a real-event
 * boundary; only runUntil() settles the polls due by its limit past
 * the last real event. Observers (DepListener, check::Hooks) see real
 * events only; an armed poll is the child of the event that armed it.
 * The poll period is fixed while anything is parked.
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
#include <span>
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
 * value — fits; a larger capture does not compile (sim::InlineFn).
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
 * Slab-allocated free-list pool of event state, owned by one
 * EventQueue.
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

} // namespace detail

/**
 * Handle to a scheduled event. Trivially copyable; copies refer to the
 * same event. Cancelling a dead handle is a no-op. A handle must not
 * be used after its queue is destroyed.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the event has neither fired nor been cancelled. */
    bool
    pending() const
    {
        return pool_ && pool_->slot(idx_).gen == gen_;
    }

    /** Prevent the event from firing. Safe to call at any time. */
    void
    cancel()
    {
        if (pending())
            pool_->release(idx_); // stale heap entry is skipped on pop
    }

  private:
    friend class EventQueue;

    EventHandle(detail::EventPool *pool, std::uint32_t idx,
                std::uint64_t gen)
        : pool_(pool), idx_(idx), gen_(gen)
    {
    }

    detail::EventPool *pool_ = nullptr;
    std::uint32_t idx_ = 0;
    std::uint64_t gen_ = 0;
};

/**
 * The global event queue. One instance per simulated machine.
 */
class EventQueue
{
  public:
    EventQueue() = default;
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
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn,
             std::source_location site = std::source_location::current())
    {
        const std::uint32_t idx = allocateChecked(when);
        detail::EventPool::Slot &slot = pool_.slot(idx);
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
    template <typename F>
    EventHandle
    schedule(Tick when, EventMeta meta, F &&fn)
    {
        const std::uint32_t idx = allocateChecked(when);
        detail::EventPool::Slot &slot = pool_.slot(idx);
        slot.fn = std::forward<F>(fn);
        slot.meta = meta;
        slot.siteFile = nullptr;
        slot.siteLine = 0;
        return pushEntry(when, idx, slot.gen);
    }

    /** Identifies a parked poller (see the file comment). */
    using PollerId = std::uint32_t;
    static constexpr PollerId kNoPoller = 0xffffffffu;

    /**
     * Set the period of parked pollers. Panics if @p period is zero, or
     * differs from pollPeriod() while a poller is parked: the phase
     * classes and counts are laid out by period.
     */
    void setPollPeriod(Tick period);
    Tick pollPeriod() const { return period_; }

    /**
     * Park a poller whose poll at now() was rejected: it polls again
     * at now() + pollPeriod() and every period after, virtually, until
     * it is armed. @p meta names it in snapshots.
     */
    PollerId park(const EventMeta &meta);

    /**
     * Make @p id's next poll a real event that runs @p fn. The record
     * is a child of the running event; it runs once, after which the
     * caller must unpark() or repark() the poller.
     */
    void arm(PollerId id, EventFn fn);

    /** A poller's armed poll was rejected: it polls on from now(). */
    void repark(PollerId id);

    /** Forget a poller (its armed poll was accepted). */
    void unpark(PollerId id);

    /** True while @p id has an armed poll pending. */
    bool armed(PollerId id) const { return pollers_[id].slot != kNoSlot; }

    /**
     * The latest poll that has run, virtual or real (a poller's park
     * tick if none has), among those of @p ids that are not armed;
     * nullopt if all are armed.
     */
    std::optional<Tick> latestPoll(std::span<const PollerId> ids) const;

    /**
     * Of @p ids (none armed), the one whose next poll runs first; equal
     * ticks go by class order.
     */
    PollerId firstToPoll(std::span<const PollerId> ids) const;

    /** Virtual polls run so far (each also an executed event). */
    std::uint64_t virtualPolls() const;

    /**
     * Run until no real event remains (a poller nobody arms polls on
     * virtually). Returns final time.
     */
    Tick run();

    /**
     * Run every event due at or before @p limit, and no other.
     * @return true if nothing is queued or parked any more, false if
     *         the limit was hit
     */
    bool runUntil(Tick limit);

    /** Number of events executed so far, virtual polls included. */
    std::uint64_t eventsExecuted() const
    {
        return executed_ + (pollers_.empty() ? 0 : virtualPolls());
    }

    /** True if no live events remain. */
    bool empty() const;

    /**
     * Run the next real event, accounting the virtual polls before it
     * lazily. @return false if no real event remained
     */
    bool step();

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
            const detail::EventPool::Slot &s = pool_.slot(e.idx);
            if (s.gen != e.gen)
                return; // cancelled
            fn(PendingEvent{e.when, e.pri, e.seq, s.meta, s.siteFile,
                            s.siteLine});
        });
        for (PollerId id : armed_) {
            const Poller &p = pollers_[id];
            fn(PendingEvent{p.base + period_, 0, p.armSeq, p.meta});
        }
    }

    /**
     * Snapshot view of one parked poller, listed in poll order by
     * forEachParked(): by phase, then class order.
     */
    struct ParkedPoller
    {
        Tick origin = 0;
        Tick base = 0;
        std::uint64_t key = 0;
        bool armed = false;
        EventMeta meta;
    };

    /** Invoke @p fn on every parked poller (checkpoint capture). */
    template <typename Fn>
    void
    forEachParked(Fn fn) const
    {
        for (const ClassList &cls : classes_)
            for (PollerId id : members(cls)) {
                const Poller &p = pollers_[id];
                fn(ParkedPoller{p.origin, p.base, p.key,
                                p.slot != kNoSlot, p.meta});
            }
    }

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

    static constexpr std::uint32_t kNoSlot = detail::EventPool::kNone;

    /**
     * A parked poller. Its polls run at origin + k * period_ (k >= 1);
     * those after `base` ran lazily, and the poll at base ran at
     * seq_ == key. While armed, `slot` holds the armed record and its
     * poll is the one at base + period_. `phase` is origin mod
     * period_ (base has it too); prev/next link it into its phase
     * class.
     */
    struct Poller
    {
        Tick origin = 0;
        Tick phase = 0;
        Tick base = 0;
        std::uint64_t key = 0;
        std::uint32_t slot = kNoSlot;
        std::uint64_t armSeq = 0;
        EventMeta meta;
        PollerId prev = kNoPoller;
        PollerId next = kNoPoller;
    };

    /** A phase class: its pollers in poll order, linked. */
    struct ClassList
    {
        PollerId head = kNoPoller;
        PollerId tail = kNoPoller;
    };

    /** Range-for view of a class's members, in poll order. */
    struct Members
    {
        struct It
        {
            const std::vector<Poller> *pollers;
            PollerId id;
            PollerId operator*() const { return id; }
            It &
            operator++()
            {
                id = (*pollers)[id].next;
                return *this;
            }
            bool operator!=(const It &o) const { return id != o.id; }
        };

        const std::vector<Poller> *pollers;
        PollerId head;
        It begin() const { return {pollers, head}; }
        It end() const { return {pollers, kNoPoller}; }
    };

    Members members(const ClassList &c) const { return {&pollers_, c.head}; }

    /** Link @p id into @p cls before @p at (last if kNoPoller). */
    void linkBefore(ClassList &cls, PollerId id, PollerId at);

    /** Unlink @p id from @p cls. */
    void unlink(ClassList &cls, PollerId id);

    /** Virtual pollers whose phase is below @p phases (Fenwick sum). */
    std::uint64_t phaseCount(Tick phases) const;

    /** Virtual polls at ticks in [@p from, @p to). */
    std::uint64_t pollsIn(Tick from, Tick to) const;

    /** Tick of virtual poller @p p's next poll; @p np is nowPhase(). */
    Tick
    nextPollTick(const Poller &p, Tick np) const
    {
        if (p.base >= now_)
            return p.base + period_;
        // The first phase tick at or after now_; the polls before it ran.
        return now_ + (p.phase >= np ? p.phase - np : p.phase + period_ - np);
    }

    /** Count the virtual polls before now_ into counted_. */
    void countPolls();

    /** @p p turns virtual at now_; its first poll is a period out. */
    void addVirtual(const Poller &p);

    /** @p p stops being virtual (it is armed). */
    void dropVirtual(const Poller &p);

    /** Mark @p p's pending poll at now_ run. */
    void settleAt(Poller &p);

    /** Key C(@p g): seq_ after the last real event at a tick <= g. */
    std::uint64_t keyAfter(Tick g) const;

    /** now_ mod period_, reduced at most once per tick. */
    Tick
    nowPhase() const
    {
        if (phaseAt_ != now_) {
            phaseAt_ = now_;
            nowPhase_ = now_ % period_;
        }
        return nowPhase_;
    }

    /** The class whose polls fall on now_. */
    ClassList &classNow() { return classes_[nowPhase()]; }

    /** Move now_ to @p t, logging the key of the tick left. */
    void advanceTo(Tick t);

    /** Settle the polls at now_ that precede a real (pri, seq) event. */
    void settleBefore(std::uint64_t pri, std::uint64_t seq);

    /** True if @p a precedes @p b in their (common) class. */
    bool classBefore(PollerId a, PollerId b) const;

    /** First armed poller in run order, or kNoPoller. */
    PollerId firstArmed() const;

    /** True if armed @p a runs before real entry @p e. */
    bool armedBefore(PollerId a, const Entry &e) const;

    /** Live radix top, or null (discards cancelled entries). */
    const Entry *liveTop();

    /** The next real or armed event, in run order. */
    struct Next
    {
        const Entry *entry = nullptr;
        PollerId armed = kNoPoller;
        Tick when = 0;
        bool any() const { return entry || armed != kNoPoller; }
    };
    Next peekNext();

    /** Run @p n; every virtual poll before it counts as run. */
    void runNext(const Next &n);

    /** Run every virtual poll due at or before @p limit. */
    void settleThrough(Tick limit);

    /** Observer bookkeeping after either kind of event ran. */
    void finishEvent();

    /** Past-scheduling precondition check + slot allocation. */
    std::uint32_t
    allocateChecked(Tick when)
    {
        if (when < now_) [[unlikely]]
            panicScheduledPast(when);
        return pool_.allocate();
    }

    /** Heap insertion + handle construction shared by schedule(). */
    EventHandle
    pushEntry(Tick when, std::uint32_t idx, std::uint64_t gen)
    {
        const std::uint64_t pri = priorityFor(when);
        const std::uint64_t seq = seq_++;
        if (dep_) [[unlikely]]
            dep_->onSchedule(seq, curExec_, when, now_,
                             pool_.slot(idx).meta);
        heap_.push(Entry{when, pri, seq, gen, idx});
        return EventHandle(&pool_, idx, gen);
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
        return pool_.slot(e.idx).gen == e.gen;
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
    detail::EventPool pool_;
    sim::RadixQueue<Entry> heap_;
    /** Parked-poller table, indexed by PollerId; freePollers_ lists
     *  the unused ids. */
    std::vector<Poller> pollers_;
    std::vector<PollerId> freePollers_;
    /** Live pollers, armed ones included. */
    std::size_t parked_ = 0;
    Tick period_ = 1;
    /** nowPhase()'s memo: now_ mod period_ as of tick phaseAt_. */
    mutable Tick phaseAt_ = 0;
    mutable Tick nowPhase_ = 0;
    /** Phase classes, period_ of them, each in poll order. */
    std::vector<ClassList> classes_ = std::vector<ClassList>(1);
    std::vector<PollerId> armed_;
    /**
     * Virtual-poll count: counted_ holds every virtual poll at a tick
     * before countedTo_ (modulo 2^64: a joining poller's first phase
     * tick is subtracted up front), pollsIn() adds the ticks since,
     * settledNow_ the polls already run at now_. phaseTree_ is a
     * Fenwick tree of the virtual pollers per phase, virtual_ their
     * number.
     */
    std::uint64_t counted_ = 0;
    Tick countedTo_ = 0;
    std::uint64_t settledNow_ = 0;
    /** Virtual pollers that turned virtual at now_; counted_ has
     *  their phase tick at now_ taken back already. */
    std::uint64_t joinedNow_ = 0;
    std::vector<std::uint64_t> phaseTree_ = std::vector<std::uint64_t>(1);
    std::uint64_t virtual_ = 0;
    /** (tick, seq_ when now_ left it), ascending from keysHead_. */
    std::vector<std::pair<Tick, std::uint64_t>> keys_;
    std::size_t keysHead_ = 0;
};

} // namespace alewife

#endif // ALEWIFE_SIM_EVENT_QUEUE_HH
