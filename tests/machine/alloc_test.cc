/**
 * @file
 * Heap-allocation regression tests.
 *
 * This binary replaces the global operator new with a counting one, so
 * it links alone. It pins two costs a message-passing sweep point no
 * longer pays: building a Machine allocates no cache storage (each
 * cache allocates on its first fill, which a message-passing run never
 * makes), and steady-state messaging allocates nothing per message
 * (packets, payloads and helper-coroutine frames are recycled; the
 * senders pass their words as spans). Sanitizer builds replace
 * operator new themselves and skip these tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/graph/catalog.hh"
#include "core/mechanism.hh"
#include "core/runner.hh"
#include "machine/machine.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ALEWIFE_ALLOC_COUNTING 0
#else
#define ALEWIFE_ALLOC_COUNTING 1
#endif

namespace {

// Only the test thread runs simulations here, but gtest may allocate
// on others; relaxed atomics keep the counters race-free.
std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gBytes{0};

} // namespace

#if ALEWIFE_ALLOC_COUNTING

// GCC cannot see that these pair malloc with free by design.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t bytes)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(bytes, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif

namespace alewife {
namespace {

using core::Mechanism;

#define SKIP_UNLESS_COUNTING()                                           \
    do {                                                                 \
        if (!ALEWIFE_ALLOC_COUNTING)                                     \
            GTEST_SKIP() << "sanitizers replace operator new";           \
    } while (0)

TEST(Allocations, MessagePassingMachineBuildAllocatesNoCacheStorage)
{
    SKIP_UNLESS_COUNTING();
    const MachineConfig cfg; // 32 nodes, 64 KiB caches
    const std::uint64_t before = gBytes.load();
    {
        Machine m(cfg, core::syncStyle(Mechanism::MpInterrupt),
                  core::recvMode(Mechanism::MpInterrupt));
        const std::uint64_t built = gBytes.load() - before;
        // 32 caches of 4096 sets would be 4 MiB on their own.
        EXPECT_LT(built, 256u * 1024u) << built << " bytes";
    }
}

/** Steps a run, sampling the counters over its middle half. */
class MiddleHalf : public core::RunDriver
{
  public:
    /** @p handlerRuns: messages the whole run handles. */
    explicit MiddleHalf(std::uint64_t handlerRuns) : total_(handlerRuns) {}

    Tick
    drive(Machine &m, const Machine::ProgramFactory &f) override
    {
        m.start(f);
        stepTo(m, total_ / 4);
        allocs_ = gAllocs.load();
        runs_ = delivered(m);
        stepTo(m, 3 * total_ / 4);
        allocs_ = gAllocs.load() - allocs_;
        runs_ = delivered(m) - runs_;
        while (m.stepOne()) {
        }
        return m.finishRun();
    }

    std::uint64_t allocs() const { return allocs_; }
    std::uint64_t runs() const { return runs_; }

  private:
    static std::uint64_t
    delivered(Machine &m)
    {
        std::uint64_t n = 0;
        for (int i = 0; i < m.nodes(); ++i)
            n += m.niAt(i).delivered();
        return n;
    }

    static void
    stepTo(Machine &m, std::uint64_t runs)
    {
        while (delivered(m) < runs && m.stepOne()) {
        }
    }

    std::uint64_t total_;
    std::uint64_t allocs_ = 0;
    std::uint64_t runs_ = 0;
};

void
expectNoAllocationPerMessage(Mechanism mech)
{
    apps::graph::GraphAppParams p;
    p.graph.family = workload::GraphFamily::RMat;
    p.graph.vertices = 2048;
    p.graph.avgDegree = 8;
    p.graph.nprocs = 32;
    p.graph.seed = 1;
    p.iters = 6;
    const core::AppFactory factory =
        apps::graph::makeApp("pagerank-push", p);
    core::RunSpec spec;
    spec.mechanism = mech;

    // A first run sizes the window (and warms the thread's free lists,
    // as the earlier points of a sweep do).
    const core::RunResult whole = core::runApp(factory, spec, true);
    const std::uint64_t handled =
        whole.counters.interruptsTaken + whole.counters.messagesPolled;
    ASSERT_GT(handled, 1000u);

    MiddleHalf mid(handled);
    const core::RunResult r =
        core::runApp(factory, spec, true, nullptr, &mid);
    ASSERT_TRUE(r.verified);
    ASSERT_GT(mid.runs(), handled / 3);
    // Per-round bookkeeping may allocate; per-message work may not.
    EXPECT_LT(static_cast<double>(mid.allocs()),
              0.01 * static_cast<double>(mid.runs()))
        << mid.allocs() << " allocations over " << mid.runs()
        << " handler runs";
}

TEST(Allocations, InterruptMessagingAllocatesNothingPerMessage)
{
    SKIP_UNLESS_COUNTING();
    expectNoAllocationPerMessage(Mechanism::MpInterrupt);
}

TEST(Allocations, PolledMessagingAllocatesNothingPerMessage)
{
    SKIP_UNLESS_COUNTING();
    expectNoAllocationPerMessage(Mechanism::MpPolling);
}

} // namespace
} // namespace alewife
