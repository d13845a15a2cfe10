/**
 * @file
 * C++20 coroutine plumbing for node programs.
 *
 * A simulated node program is an ordinary coroutine returning sim::Thread.
 * The program suspends at every awaited simulated operation (compute
 * bursts, memory misses, barriers, blocking receives); the event queue
 * resumes it when the operation completes. One Thread per node keeps the
 * five programming-model variants of each application readable.
 */

#ifndef ALEWIFE_SIM_CORO_HH
#define ALEWIFE_SIM_CORO_HH

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/logging.hh"
#include "sim/recycler.hh"

namespace alewife::sim {

/**
 * Owning handle for a node-program coroutine.
 *
 * The coroutine starts suspended; the owner (the Machine) resumes it to
 * begin execution. After completion the frame stays alive (final_suspend
 * suspends) so done() can be queried; the destructor releases it.
 */
class Thread
{
  public:
    struct promise_type
    {
        Thread
        get_return_object()
        {
            return Thread(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }

        std::exception_ptr exception;
    };

    Thread() = default;

    explicit Thread(std::coroutine_handle<promise_type> h) : handle_(h) {}

    Thread(Thread &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Thread &
    operator=(Thread &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Thread(const Thread &) = delete;
    Thread &operator=(const Thread &) = delete;

    ~Thread() { destroy(); }

    /** True if the program ran to completion. */
    bool done() const { return !handle_ || handle_.done(); }

    /** True if this handle owns a live coroutine. */
    bool valid() const { return static_cast<bool>(handle_); }

    /**
     * Resume the program (initial start or after an await).
     * Rethrows any exception that escaped the program body.
     */
    void
    resume()
    {
        if (!handle_ || handle_.done())
            ALEWIFE_PANIC("resuming a finished node program");
        handle_.resume();
        if (handle_.done() && handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

    /** Raw handle, for awaitables to stash and resume later. */
    std::coroutine_handle<> raw() const { return handle_; }

    /**
     * If the program finished with an uncaught exception, rethrow it.
     * Used by the processor model after resuming an inner handle (where
     * resume() above is bypassed).
     */
    void
    rethrowIfFailed() const
    {
        if (handle_ && handle_.done() && handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_;
};

/**
 * A nested awaitable coroutine: multi-step helpers (barriers, locks,
 * bulk-transfer wrappers) are SubTasks co_awaited from a node program.
 * Completion resumes the awaiting coroutine by symmetric transfer, so
 * the processor model only ever sees the innermost suspended handle.
 *
 * A message-passing program awaits a SubTask per message sent or
 * polled, so the frames come from the thread's free lists
 * (sim/recycler.hh): the promise derives from sim::Recycled, which
 * the compiler uses to allocate and free the frame.
 */
template <typename T = void>
class SubTask
{
    struct PromiseBase : Recycled
    {
        std::coroutine_handle<> continuation;
        std::exception_ptr exception;

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            template <typename P>
            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<P> h) noexcept
            {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

  public:
    struct promise_type : PromiseBase
    {
        T value{};

        SubTask
        get_return_object()
        {
            return SubTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_value(T v) { value = std::move(v); }
    };

    explicit SubTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

    SubTask(SubTask &&o) noexcept
        : handle_(std::exchange(o.handle_, nullptr))
    {
    }

    SubTask(const SubTask &) = delete;
    SubTask &operator=(const SubTask &) = delete;
    SubTask &operator=(SubTask &&) = delete;

    ~SubTask()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_; // start the subtask now
    }

    T
    await_resume()
    {
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
        return std::move(handle_.promise().value);
    }

  private:
    std::coroutine_handle<promise_type> handle_;
};

/** void specialization. */
template <>
class SubTask<void>
{
    struct PromiseBase : Recycled
    {
        std::coroutine_handle<> continuation;
        std::exception_ptr exception;

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            template <typename P>
            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<P> h) noexcept
            {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

  public:
    struct promise_type : PromiseBase
    {
        SubTask
        get_return_object()
        {
            return SubTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() {}
    };

    explicit SubTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

    SubTask(SubTask &&o) noexcept
        : handle_(std::exchange(o.handle_, nullptr))
    {
    }

    SubTask(const SubTask &) = delete;
    SubTask &operator=(const SubTask &) = delete;
    SubTask &operator=(SubTask &&) = delete;

    ~SubTask()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    void
    await_resume()
    {
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

  private:
    std::coroutine_handle<promise_type> handle_;
};

} // namespace alewife::sim

#endif // ALEWIFE_SIM_CORO_HH
