/**
 * @file
 * Lightweight categorized tracing (gem5 DPRINTF in spirit).
 *
 * Categories are enabled via the ALEWIFE_TRACE environment variable
 * (comma-separated list, or "all"), or programmatically through
 * Trace::enable(). Disabled categories cost one branch. Output goes
 * to stderr, prefixed with the simulated tick and category:
 *
 *   ALEWIFE_TRACE=coh,net ./build/examples/quickstart
 *   ALEWIFE_TRACE=all     ./build/tests/coh_test --gtest_filter=...
 */

#ifndef ALEWIFE_SIM_TRACE_HH
#define ALEWIFE_SIM_TRACE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

#include "sim/types.hh"

namespace alewife {

/** Trace categories, one per subsystem. */
enum class TraceCat : std::uint8_t
{
    Coh = 0, ///< coherence protocol transitions
    Net,     ///< packet injection / delivery
    Msg,     ///< active messages and handlers
    Proc,    ///< program resume/suspend, handler charges
    Sync,    ///< barriers and locks
    Obs,     ///< observability layer (recorder, exporters)
    NumCats
};

/** Category name as used in ALEWIFE_TRACE. */
const char *traceCatName(TraceCat c);

/**
 * Global trace switchboard.
 *
 * Thread-safe: parallel sweeps simulate on several threads at once, so
 * the category flags and line counter are atomics (relaxed — they are
 * independent flags, not synchronization), initialization happens once
 * via a magic static, and each emitted line is serialized through
 * logMutex().
 */
class Trace
{
  public:
    /** True if @p c should emit. */
    static bool
    enabled(TraceCat c)
    {
        return state()
            .on[static_cast<std::size_t>(c)]
            .load(std::memory_order_relaxed);
    }

    /** Enable/disable a category at runtime (tests). */
    static void enable(TraceCat c, bool on = true);

    /** Enable every category. */
    static void enableAll(bool on = true);

    /** Re-read ALEWIFE_TRACE (also applied once at first use). */
    static void initFromEnv();

    /** Emit one line; use the ALEWIFE_TRACE macro instead. */
    static void emit(TraceCat c, Tick now, const std::string &msg);

    /** Lines emitted so far (tests). */
    static std::uint64_t linesEmitted();

  private:
    struct State
    {
        /** Constructed once (thread-safe); parses ALEWIFE_TRACE. */
        State();

        std::array<std::atomic<bool>,
                   static_cast<std::size_t>(TraceCat::NumCats)>
            on{};
        std::atomic<std::uint64_t> lines{0};
    };

    static State &state();
};

namespace detail {

template <typename... Args>
std::string
traceFormat(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace alewife

/**
 * Emit a trace line when the category is enabled. @p now_expr is a
 * Tick; remaining arguments are streamed.
 */
#define ALEWIFE_TRACE_EVENT(cat, now_expr, ...)                           \
    do {                                                                  \
        if (::alewife::Trace::enabled(cat)) {                             \
            ::alewife::Trace::emit(                                       \
                cat, (now_expr),                                          \
                ::alewife::detail::traceFormat(__VA_ARGS__));             \
        }                                                                 \
    } while (0)

#endif // ALEWIFE_SIM_TRACE_HH
