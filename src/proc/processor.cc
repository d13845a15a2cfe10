#include "proc/processor.hh"

#include <algorithm>

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife::proc {

void
Op::await_suspend(std::coroutine_handle<> h)
{
    proc_->suspendOnOp(h, state_);
}

Proc::Proc(NodeId id, EventQueue &eq, const MachineConfig &cfg)
    : id_(id), eq_(eq), cfg_(cfg)
{
    // Bound how far a node may run ahead of global time through the
    // fast path so interrupt timing stays accurate (see file comment).
    aheadLimit_ = cyclesToTicks(std::uint64_t(128));
}

void
Proc::start(sim::Thread program)
{
    if (state_ != State::Ready)
        ALEWIFE_PANIC("Proc::start called twice");
    program_ = std::move(program);
    resumeHandle_ = program_.raw();
    localNow_ = std::max(localNow_, eq_.now());
    scheduleResume(localNow_);
}

void
Proc::advance(TimeCat cat, double cycles)
{
    const Tick t = cyclesToTicks(cycles);
    localNow_ += t;
    ahead_ += t;
    breakdown_.add(cat, t);
    if (hooks_)
        noteSpan(cat, localNow_ - t, localNow_);
}

void
Proc::noteSpan(TimeCat cat, Tick start, Tick end)
{
    if (start >= end)
        return;
    if (spanOpen_ && cat == spanCat_ && start == spanEnd_) {
        spanEnd_ = end;
        return;
    }
    flushSpans();
    spanCat_ = cat;
    spanStart_ = start;
    spanEnd_ = end;
    spanOpen_ = true;
}

void
Proc::flushSpans()
{
    if (!spanOpen_)
        return;
    spanOpen_ = false;
    if (hooks_)
        hooks_->onProcSpan(id_, spanCat_, spanStart_, spanEnd_);
}

void
Proc::scheduleResume(Tick at)
{
    if (resumeEvent_.pending()) {
        if (resumeAt_ == at)
            return;
        resumeEvent_.cancel();
    }
    resumeAt_ = at;
    resumeEvent_ = eq_.schedule(
        at, EventMeta{EventTag::ProcResume,
                      static_cast<std::uint64_t>(id_), 0},
        [this]() { fireResume(); });
}

void
Proc::accountWait(TimeCat cat, Tick start_local, Tick stolen_at_start,
                  Tick end)
{
    const Tick stolen_delta = stolen_ - stolen_at_start;
    const Tick raw = end > start_local ? end - start_local : 0;
    const Tick net = raw > stolen_delta ? raw - stolen_delta : 0;
    breakdown_.add(cat, net);
    if (hooks_)
        noteSpan(cat, end - net, end);
}

void
Proc::suspendCompute(std::coroutine_handle<> h, Tick dur, TimeCat cat)
{
    breakdown_.add(cat, dur);
    computeUntil_ = localNow_ + dur;
    if (hooks_)
        noteSpan(cat, localNow_, computeUntil_);
    state_ = State::ComputeBlock;
    resumeHandle_ = h;
    ahead_ = 0;
    scheduleResume(computeUntil_);
}

void
Proc::suspendOnOp(std::coroutine_handle<> h, std::shared_ptr<OpState> op)
{
    state_ = State::WaitingOp;
    currentOp_ = std::move(op);
    resumeHandle_ = h;
    ahead_ = 0;
    // completeOp schedules the resume; if the op raced to completion
    // between issue and await, Op::await_ready already returned true.
    if (currentOp_->done)
        scheduleResume(std::max(eq_.now(), localNow_));
}

void
Proc::suspendSync(std::coroutine_handle<> h)
{
    state_ = State::Waiting;
    cond_.reset();
    resumeHandle_ = h;
    ahead_ = 0;
    scheduleResume(localNow_);
}

void
Proc::suspendOnCond(std::coroutine_handle<> h, std::function<bool()> pred,
                    TimeCat cat)
{
    state_ = State::Waiting;
    cond_ = CondWait{std::move(pred), cat, localNow_, stolen_};
    resumeHandle_ = h;
    ahead_ = 0;
    // A handler may already have satisfied the predicate between the
    // caller's check and this suspension (it cannot in the current
    // single-threaded kernel, but recheck is cheap and future-proof).
    if (cond_->pred())
        scheduleResume(std::max(eq_.now(), localNow_));
}

Tick
Proc::chargeHandler(double cycles, TimeCat cat)
{
    const Tick cost = cyclesToTicks(cycles);
    const Tick now = eq_.now();
    breakdown_.add(cat, cost);
    stolen_ += cost;

    switch (state_) {
      case State::Running:
        // Polled handlers execute as part of the program's own flow.
        localNow_ += cost;
        ahead_ += cost;
        if (hooks_)
            hooks_->onHandlerRun(id_, localNow_ - cost, localNow_);
        return localNow_;

      case State::ComputeBlock:
        // Interrupt preempts the compute burst and pushes out its end.
        computeUntil_ += cost;
        scheduleResume(computeUntil_);
        if (hooks_)
            hooks_->onHandlerRun(id_, now, now + cost);
        return now + cost;

      case State::WaitingOp:
      case State::Waiting:
      case State::Ready:
      case State::Done: {
        const Tick begin = std::max(now, localNow_);
        localNow_ = begin + cost;
        if (resumeEvent_.pending() && resumeAt_ < localNow_)
            scheduleResume(localNow_);
        if (hooks_)
            hooks_->onHandlerRun(id_, begin, localNow_);
        return localNow_;
      }
    }
    ALEWIFE_PANIC("bad proc state");
}

void
Proc::completeOp(const std::shared_ptr<OpState> &op, std::uint64_t value)
{
    op->value = value;
    op->done = true;
    if (state_ == State::WaitingOp && currentOp_ == op)
        scheduleResume(std::max(eq_.now(), localNow_));
}

void
Proc::recheckCond()
{
    if (state_ == State::Waiting && cond_ && cond_->pred())
        scheduleResume(std::max(eq_.now(), localNow_));
}

Tick
Proc::busyHorizon() const
{
    if (state_ == State::ComputeBlock)
        return computeUntil_;
    return localNow_;
}

void
Proc::fireResume()
{
    const Tick t = eq_.now();

    switch (state_) {
      case State::Ready:
        localNow_ = std::max(localNow_, t);
        break;

      case State::ComputeBlock:
        if (computeUntil_ > t) {
            // A handler pushed the block's end after this event was
            // already committed; try again later.
            scheduleResume(computeUntil_);
            return;
        }
        localNow_ = computeUntil_;
        break;

      case State::WaitingOp: {
        if (!currentOp_ || !currentOp_->done)
            ALEWIFE_PANIC("resume of incomplete op on node ", id_);
        const Tick end = std::max(localNow_, t);
        accountWait(currentOp_->waitCat, currentOp_->startLocal,
                    currentOp_->stolenAtStart, end);
        localNow_ = end;
        currentOp_.reset();
        break;
      }

      case State::Waiting: {
        if (cond_) {
            if (!cond_->pred()) {
                // Predicate flickered back off before we ran; stay
                // suspended until the next recheck.
                return;
            }
            const Tick end = std::max(localNow_, t);
            accountWait(cond_->cat, cond_->startLocal,
                        cond_->stolenAtStart, end);
            cond_.reset();
        }
        localNow_ = std::max(localNow_, t);
        break;
      }

      case State::Running:
      case State::Done:
        ALEWIFE_PANIC("resume in state ", static_cast<int>(state_),
                      " on node ", id_);
    }

    state_ = State::Running;
    ahead_ = 0;
    auto h = resumeHandle_;
    resumeHandle_ = nullptr;
    h.resume();

    if (program_.done()) {
        state_ = State::Done;
        program_.rethrowIfFailed();
        // The machine's finish time is max over nodes of localNow_,
        // which may have run ahead of this event's tick; report the
        // run-ahead so trace analysis can reconstruct the finish.
        if (hooks_)
            hooks_->onProgramDone(
                id_, localNow_ > t ? localNow_ - t : Tick{0});
    } else if (state_ == State::Running) {
        ALEWIFE_PANIC("program on node ", id_,
                      " suspended outside the processor model");
    }
}

} // namespace alewife::proc
