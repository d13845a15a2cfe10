/**
 * @file
 * Per-thread recycling of small heap blocks.
 *
 * The hot objects of a run — packets, their payloads, the frames of the
 * short helper coroutines a node program awaits per message — are made
 * and dropped once per message, always on the thread that runs the
 * simulation. A class that derives from sim::Recycled takes its memory
 * from a per-thread free list, one per 16-byte size class up to
 * Recycler::kMaxBytes, instead of from the global heap. A block is
 * taken from the heap only when its list is empty, so a run allocates
 * at most its peak of live objects per class and a later point on the
 * same thread none at all. Larger sizes go to the global heap.
 *
 * Contract:
 *  - A freed block goes on the list of the thread that frees it. Every
 *    block is its own heap allocation, so freeing on another thread is
 *    correct, only not recycled where it came from.
 *  - A thread's lists go back to the heap when the thread exits.
 *  - Under AddressSanitizer a block is poisoned while it is on a list:
 *    a use after free, or a second free (which writes the list link),
 *    still faults.
 */

#ifndef ALEWIFE_SIM_RECYCLER_HH
#define ALEWIFE_SIM_RECYCLER_HH

#include <cstddef>
#include <new>

#include <sanitizer/asan_interface.h>

namespace alewife::sim {

/** The per-thread size-class free lists (all members static). */
class Recycler
{
  public:
    static constexpr std::size_t kGranule = 16;
    static constexpr std::size_t kMaxBytes = 1024;
    static constexpr std::size_t kClasses = kMaxBytes / kGranule;

    /** A block of at least @p bytes, from this thread's lists. */
    static void *
    allocate(std::size_t bytes)
    {
        if (bytes == 0 || bytes > kMaxBytes) [[unlikely]]
            return ::operator new(bytes);
        const std::size_t c = classOf(bytes);
        void *p = lists_.head[c];
        if (!p) [[unlikely]]
            return refill(c);
        ASAN_UNPOISON_MEMORY_REGION(p, classBytes(c));
        lists_.head[c] = *static_cast<void **>(p);
        return p;
    }

    /** Return @p p, allocated with @p bytes, to this thread's lists. */
    static void
    release(void *p, std::size_t bytes) noexcept
    {
        if (!p)
            return;
        if (bytes == 0 || bytes > kMaxBytes) [[unlikely]] {
            ::operator delete(p);
            return;
        }
        const std::size_t c = classOf(bytes);
        *static_cast<void **>(p) = lists_.head[c];
        lists_.head[c] = p;
        ASAN_POISON_MEMORY_REGION(p, classBytes(c));
    }

    /** Blocks on the calling thread's lists (tests). */
    static std::size_t cached();

  private:
    static std::size_t classOf(std::size_t bytes)
    {
        return (bytes - 1) / kGranule;
    }

    static std::size_t classBytes(std::size_t c)
    {
        return (c + 1) * kGranule;
    }

    /** A fresh block of class @p c; arms the thread-exit drain. */
    static void *refill(std::size_t c);

    /** Trivial, so reaching it costs no thread-local init check. */
    struct Lists
    {
        void *head[kClasses];
    };

    static inline thread_local Lists lists_{};

    friend struct RecyclerDrain;
};

/**
 * Base class that routes `new`/`delete` of the derived class through
 * Recycler. The sized delete receives the dynamic type's size, so a
 * polymorphic hierarchy needs the base only once, at its root.
 */
struct Recycled
{
    static void *operator new(std::size_t bytes)
    {
        return Recycler::allocate(bytes);
    }

    static void operator delete(void *p, std::size_t bytes) noexcept
    {
        Recycler::release(p, bytes);
    }
};

} // namespace alewife::sim

#endif // ALEWIFE_SIM_RECYCLER_HH
