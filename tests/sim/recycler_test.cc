/**
 * @file
 * sim::Recycler: per-thread reuse of freed blocks, ASan poisoning of
 * blocks on a free list, and isolation between threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "sim/recycler.hh"

namespace alewife::sim {
namespace {

struct Small : Recycled
{
    std::uint64_t words[5] = {};
};

struct Base : Recycled
{
    virtual ~Base() = default;
};

struct Derived : Base
{
    std::uint64_t words[20] = {};
};

TEST(Recycler, FreedBlockIsReusedForItsSizeClass)
{
    void *a = Recycler::allocate(40);
    const std::size_t cached = Recycler::cached();
    Recycler::release(a, 40);
    EXPECT_EQ(Recycler::cached(), cached + 1);
    // Any size in the same 16-byte class takes the same block.
    void *b = Recycler::allocate(33);
    EXPECT_EQ(a, b);
    EXPECT_EQ(Recycler::cached(), cached);
    Recycler::release(b, 33);
}

TEST(Recycler, ClassesDoNotMix)
{
    void *a = Recycler::allocate(16);
    Recycler::release(a, 16);
    void *b = Recycler::allocate(17); // next class up
    EXPECT_NE(a, b);
    Recycler::release(b, 17);
}

TEST(Recycler, LargeBlocksBypassTheLists)
{
    const std::size_t cached = Recycler::cached();
    void *p = Recycler::allocate(Recycler::kMaxBytes + 1);
    Recycler::release(p, Recycler::kMaxBytes + 1);
    EXPECT_EQ(Recycler::cached(), cached);
}

TEST(Recycler, DerivedClassesRecycleThroughTheirBase)
{
    auto *s = new Small;
    delete s;
    auto *s2 = new Small;
    EXPECT_EQ(static_cast<void *>(s), static_cast<void *>(s2));
    delete s2;

    // The virtual destructor hands the dynamic size to the sized
    // delete, so a Derived block is filed in Derived's class.
    Base *d = new Derived;
    void *mem = d;
    delete d;
    void *again = Recycler::allocate(sizeof(Derived));
    EXPECT_EQ(mem, again);
    Recycler::release(again, sizeof(Derived));
}

TEST(Recycler, BlocksOnAListArePoisonedUnderAsan)
{
#if defined(__SANITIZE_ADDRESS__)
    void *p = Recycler::allocate(64);
    EXPECT_EQ(__asan_address_is_poisoned(p), 0);
    Recycler::release(p, 64);
    EXPECT_NE(__asan_address_is_poisoned(p), 0);
    EXPECT_NE(
        __asan_address_is_poisoned(static_cast<char *>(p) + 63), 0);
    void *q = Recycler::allocate(64);
    ASSERT_EQ(p, q);
    EXPECT_EQ(__asan_address_is_poisoned(q), 0);
    EXPECT_EQ(
        __asan_address_is_poisoned(static_cast<char *>(q) + 63), 0);
    Recycler::release(q, 64);
#else
    GTEST_SKIP() << "poisoning is active only under AddressSanitizer";
#endif
}

TEST(Recycler, ThreadsKeepSeparateLists)
{
    // A block freed on one thread is not handed out on another; each
    // thread reuses its own, and a thread's lists drain when it exits
    // (a sanitizer build would report the blocks as leaked otherwise).
    void *mine = Recycler::allocate(48);
    Recycler::release(mine, 48);

    void *theirs = nullptr;
    void *theirsAgain = nullptr;
    std::thread t([&] {
        theirs = Recycler::allocate(48);
        Recycler::release(theirs, 48);
        theirsAgain = Recycler::allocate(48);
        Recycler::release(theirsAgain, 48);
    });
    t.join();

    EXPECT_NE(theirs, mine);
    EXPECT_EQ(theirs, theirsAgain);
    void *mineAgain = Recycler::allocate(48);
    EXPECT_EQ(mineAgain, mine);
    Recycler::release(mineAgain, 48);
}

} // namespace
} // namespace alewife::sim
