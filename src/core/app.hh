/**
 * @file
 * Application interface: one implementation per paper benchmark.
 *
 * An App knows how to (a) generate its workload deterministically,
 * (b) compute a sequential reference result, and (c) run itself on a
 * Machine under any of the five mechanisms. Numeric results are checked
 * against the reference on every run, so the coherence protocol and
 * message plumbing are verified by real data, not just counters.
 */

#ifndef ALEWIFE_CORE_APP_HH
#define ALEWIFE_CORE_APP_HH

#include <memory>
#include <string>

#include "core/mechanism.hh"
#include "machine/machine.hh"
#include "sim/coro.hh"

namespace alewife::obs {
class MetricsRegistry;
}

namespace alewife::core {

/**
 * Base class for the paper's four applications (and any user app).
 */
class App
{
  public:
    virtual ~App() = default;

    /** Workload name ("em3d", "unstruc", "iccg", "moldyn"). */
    virtual std::string name() const = 0;

    /**
     * Allocate shared state / register handlers / partition data on
     * @p m for a run under @p mech. Called once per Machine.
     */
    virtual void setup(Machine &m, Mechanism mech) = 0;

    /** Build the program coroutine for one node. */
    virtual sim::Thread program(proc::Ctx &ctx) = 0;

    /**
     * Result checksum after the run (gathered from shared memory or the
     * per-node partitions, depending on the mechanism).
     */
    virtual double checksum() const = 0;

    /** Sequential-reference checksum for verification. */
    virtual double reference() const = 0;

    /** Relative tolerance for checksum verification. */
    virtual double tolerance() const { return 1e-9; }

    /**
     * Export application-level metrics into an attached recorder's
     * registry. Called by runApp after the run completes and before
     * the recorder finalizes, only when observability is on. Must not
     * touch machine or application state (results are bit-identical
     * with observability attached or detached).
     */
    virtual void exportMetrics(obs::MetricsRegistry &) const {}
};

/** Creates fresh App instances (one per run). */
using AppFactory = std::function<std::unique_ptr<App>()>;

} // namespace alewife::core

#endif // ALEWIFE_CORE_APP_HH
