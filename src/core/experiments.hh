/**
 * @file
 * The paper's parametric experiments (Section 5), packaged as reusable
 * sweeps over machine parameters:
 *
 *  - runAllMechanisms: Figures 4 and 5 (breakdowns at the base design)
 *  - bisectionSweep:   Figure 8 (cross-traffic emulation)
 *  - msgLenSweep:      Figure 7 (cross-traffic message-length artifact)
 *  - clockSweep:       Figure 9 (relative network latency via clock)
 *  - idealLatencySweep: Figure 10 (uniform-latency network emulation)
 *
 * Every sweep executes through exp::SweepEngine: pass EngineOptions
 * with jobs > 1 to fan the independent simulations out over worker
 * threads (results are byte-identical to the serial order), and an
 * exp::ResultCache plus appKey to skip runs already computed. The
 * default options reproduce the historical serial behavior exactly.
 */

#ifndef ALEWIFE_CORE_EXPERIMENTS_HH
#define ALEWIFE_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "exp/sweep_engine.hh"

namespace alewife::core {

/** One point of a sweep: x is the swept parameter. */
struct SweepPoint
{
    double x = 0.0;
    RunResult result;
};

/** One mechanism's curve through a sweep. */
struct MechSeries
{
    Mechanism mech = Mechanism::SharedMemory;
    std::vector<SweepPoint> points;
};

/** The parametric sweeps. */
enum class SweepKind
{
    None,         ///< every mechanism once at the base machine
    Bisection,    ///< Figure 8: effective bisection via cross traffic
    MsgLen,       ///< Figure 7: cross-traffic message length
    Clock,        ///< Figure 9: processor clock vs fixed network
    IdealLatency, ///< Figure 10: ideal uniform-latency network
};

/** What to sweep: everything needed to materialize the spec list. */
struct SweepRequest
{
    SweepKind kind = SweepKind::None;
    std::vector<Mechanism> mechs;
    /**
     * The swept points; meaning depends on kind: effective bisection
     * bytes/cycle (Bisection), cross-message bytes (MsgLen), processor
     * MHz (Clock), emulated one-way latency cycles (IdealLatency).
     * Ignored for None.
     */
    std::vector<double> points;
    /** Cross-traffic message bytes (Bisection only). */
    std::uint32_t crossMsgBytes = 64;
    /** Injected cross-traffic volume (MsgLen only). */
    double crossBytesPerCycle = 0.0;
};

/**
 * A materialized sweep: the flat spec list in canonical submission
 * order plus the shape needed to fold flat results back into series.
 * The wrappers below submit specs to SweepEngine in this order, and a
 * farmed batch names each job by its index here, which is what makes
 * results bit-identical (job index for job index) whether the engine
 * runs a point in-process or a `farm_cli worker` on another host
 * does.
 */
struct SweepPlan
{
    SweepKind kind = SweepKind::None;
    std::vector<Mechanism> mechs;
    /** One SweepEngine job per entry, canonical submission order. */
    std::vector<RunSpec> specs;
    /** x-axis value for (mechanism i, point j). */
    std::vector<std::vector<double>> xs;
    /** specs index backing (mechanism i, point j) — several points
     *  may share one spec (flat-replicated message-passing curves). */
    std::vector<std::vector<std::size_t>> specIndex;
};

/** Materialize @p req against @p base. Fatal on unsatisfiable
 *  requests: a bisection target at or below 0, or above native. */
SweepPlan planSweep(const MachineConfig &base, const SweepRequest &req);

/** Fold flat submission-ordered @p results back into series. */
std::vector<MechSeries>
seriesFromPlan(const SweepPlan &plan,
               const std::vector<RunResult> &results);

/** Run every mechanism once at the base machine (Figures 4 and 5). */
std::vector<RunResult>
runAllMechanisms(const AppFactory &app, const MachineConfig &base,
                 const std::vector<Mechanism> &mechs,
                 const exp::EngineOptions &opts = {});

/**
 * Figure 8: sweep effective bisection bandwidth by injecting cross
 * traffic. @p bisections are the *effective* bytes/cycle targets (the
 * native bisection minus injected traffic); x = effective bisection.
 */
std::vector<MechSeries>
bisectionSweep(const AppFactory &app, const MachineConfig &base,
               const std::vector<Mechanism> &mechs,
               const std::vector<double> &bisections,
               std::uint32_t cross_msg_bytes = 64,
               const exp::EngineOptions &opts = {});

/**
 * Figure 7: fixed cross-traffic volume, varying message length;
 * x = cross-traffic message bytes.
 */
std::vector<MechSeries>
msgLenSweep(const AppFactory &app, const MachineConfig &base,
            const std::vector<Mechanism> &mechs,
            double cross_bytes_per_cycle,
            const std::vector<std::uint32_t> &lengths,
            const exp::EngineOptions &opts = {});

/**
 * Figure 9: vary processor clock against the fixed-wall-clock network;
 * x = one-way latency of a 24-byte packet in processor cycles.
 */
std::vector<MechSeries>
clockSweep(const AppFactory &app, const MachineConfig &base,
           const std::vector<Mechanism> &mechs,
           const std::vector<double> &mhz_values,
           const exp::EngineOptions &opts = {});

/**
 * Figure 10: ideal uniform-latency network. Shared-memory mechanisms
 * sweep @p latencies (cycles); message-passing mechanisms are run once
 * at the base machine and replicated flat, as in the paper ("plotted
 * for reference only"). x = emulated one-way latency in cycles.
 */
std::vector<MechSeries>
idealLatencySweep(const AppFactory &app, const MachineConfig &base,
                  const std::vector<Mechanism> &mechs,
                  const std::vector<double> &latencies,
                  const exp::EngineOptions &opts = {});

} // namespace alewife::core

#endif // ALEWIFE_CORE_EXPERIMENTS_HH
