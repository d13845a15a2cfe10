#include "sim/recycler.hh"

namespace alewife::sim {

/** Gives a thread's blocks back to the heap when the thread exits. */
struct RecyclerDrain
{
    bool armed = false;

    ~RecyclerDrain()
    {
        for (void *&head : Recycler::lists_.head) {
            while (void *p = head) {
                ASAN_UNPOISON_MEMORY_REGION(p, sizeof(void *));
                head = *static_cast<void **>(p);
                ::operator delete(p);
            }
        }
    }
};

namespace {

thread_local RecyclerDrain drain;

} // namespace

void *
Recycler::refill(std::size_t c)
{
    drain.armed = true; // first use constructs it, registering ~drain
    return ::operator new(classBytes(c));
}

std::size_t
Recycler::cached()
{
    std::size_t n = 0;
    for (void *p : lists_.head) {
        while (p) {
            ASAN_UNPOISON_MEMORY_REGION(p, sizeof(void *));
            void *next = *static_cast<void **>(p);
            ASAN_POISON_MEMORY_REGION(p, sizeof(void *));
            p = next;
            ++n;
        }
    }
    return n;
}

} // namespace alewife::sim
