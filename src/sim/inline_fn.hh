/**
 * @file
 * InlineFn: a move-only callable with small-buffer storage.
 *
 * std::function costs a heap allocation for any capture larger than its
 * (implementation-defined, ~16-byte) inline buffer — which is every
 * event callback this simulator schedules, since they capture at least
 * a component pointer plus a message. InlineFn<N> stores every capture
 * inline, so the event-queue hot path allocates nothing in steady
 * state. A capture over N bytes, over-aligned, or with a throwing move
 * does not compile; for event callbacks N is kEventCallbackBytes
 * (sim/event_queue.hh).
 *
 * Dispatch is one indirect call through a per-type operations table
 * (invoke / relocate / destroy), the same manual-vtable technique used
 * by every small-function implementation. Relocation is a move-
 * construct + destroy pair, so InlineFn is cheaply movable and can live
 * inside pooled event slots that are recycled by index.
 */

#ifndef ALEWIFE_SIM_INLINE_FN_HH
#define ALEWIFE_SIM_INLINE_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace alewife::sim {

/**
 * Move-only `void()` callable with @p N bytes of inline capture storage.
 */
template <std::size_t N>
class InlineFn
{
  public:
    InlineFn() = default;

    /** Wrap a `void()` callable that fits the buffer (fitsInline()). */
    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFn>
                  && std::is_invocable_r_v<void, D &>>>
    InlineFn(F &&f) // NOLINT(google-explicit-constructor)
    {
        construct<F, D>(std::forward<F>(f));
    }

    /**
     * Assign a callable in place — constructs the capture directly in
     * this object's storage, with no intermediate InlineFn and no
     * relocate. This is what keeps EventQueue::schedule cheap: the
     * caller's lambda is built straight into the pooled event slot.
     */
    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFn>
                  && std::is_invocable_r_v<void, D &>>>
    InlineFn &
    operator=(F &&f)
    {
        reset();
        construct<F, D>(std::forward<F>(f));
        return *this;
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** @pre *this holds a callable */
    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    /** True if a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Destroy the held callable (if any); *this becomes empty. */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** True if a callable of type @p F fits the inline buffer. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        return sizeof(F) <= N && alignof(F) <= alignof(std::max_align_t)
               && std::is_nothrow_move_constructible_v<F>;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct *src into dst storage, then destroy *src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename F, typename D>
    void
    construct(F &&f)
    {
        static_assert(fitsInline<D>(),
                      "callable exceeds the inline buffer (too large, "
                      "over-aligned or throwing move); event callbacks "
                      "get kEventCallbackBytes (sim/event_queue.hh)");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        ops_ = &opsFor<D>;
    }

    template <typename F>
    static F &
    as(void *p)
    {
        return *std::launder(reinterpret_cast<F *>(p));
    }

    template <typename F>
    static constexpr Ops opsFor = {
        [](void *p) { as<F>(p)(); },
        [](void *src, void *dst) noexcept {
            ::new (dst) F(std::move(as<F>(src)));
            as<F>(src).~F();
        },
        [](void *p) noexcept { as<F>(p).~F(); },
    };

    void
    moveFrom(InlineFn &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(other.buf_, buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) std::byte buf_[N];
    const Ops *ops_ = nullptr;
};

} // namespace alewife::sim

#endif // ALEWIFE_SIM_INLINE_FN_HH
