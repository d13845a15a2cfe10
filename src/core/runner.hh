/**
 * @file
 * AppRunner: execute one application under one mechanism on one machine
 * configuration and collect every statistic the paper reports.
 */

#ifndef ALEWIFE_CORE_RUNNER_HH
#define ALEWIFE_CORE_RUNNER_HH

#include <cstdint>
#include <string>

#include "check/perturb.hh"
#include "core/app.hh"
#include "core/mechanism.hh"
#include "machine/config.hh"
#include "machine/machine.hh"
#include "net/cross_traffic.hh"
#include "obs/options.hh"
#include "sim/stats.hh"

namespace alewife::check {
class InvariantAuditor;
}

namespace alewife::obs {
class CritPathRecorder;
}

namespace alewife::core {

/**
 * Deterministic one-off delay injection: charge node @p node a
 * handler-style stall of @p stallCycles at global time @p atCycles
 * (arXiv 1905.10603-style perturbation probing). Changes results by
 * design, so an enabled injection makes the run uncacheable (see
 * ResultCache::key); disabled (the default) schedules nothing and is
 * bit-identical to no knob at all.
 */
struct DelayInjection
{
    NodeId node = -1;
    double atCycles = 0.0;
    double stallCycles = 0.0;

    bool enabled() const { return node >= 0 && stallCycles > 0.0; }
};

/** Everything a single application run produced. */
struct RunResult
{
    std::string app;
    Mechanism mechanism = Mechanism::SharedMemory;

    /** Application runtime in processor cycles. */
    double runtimeCycles = 0.0;

    /** Per-node average execution-time breakdown (cycles). */
    TimeBreakdown breakdown;

    /** Communication volume injected into the network. */
    VolumeBreakdown volume;

    /** Machine-wide event counters. */
    MachineCounters counters;

    /** Numeric verification. */
    double checksum = 0.0;
    double reference = 0.0;
    bool verified = false;

    /** Simulator diagnostics. */
    std::uint64_t simEvents = 0;

    /** Cycles per category, averaged over nodes. */
    double avgCycles(TimeCat c) const;
};

/** One experiment point: machine + mechanism + optional cross traffic. */
struct RunSpec
{
    MachineConfig machine;
    Mechanism mechanism = Mechanism::SharedMemory;
    net::CrossTrafficConfig crossTraffic; ///< bytesPerCycle==0 disables

    /** Attach an invariant auditor that panics at the first violation. */
    bool audit = false;
    /** Schedule perturbation (fuzzing); disabled by default. */
    check::PerturbConfig perturb;
    /**
     * Observability (trace/metrics/interval/flight); all-off by
     * default. Results are bit-identical attached or detached, so obs
     * settings are not part of result-cache keys; the sweep engine
     * bypasses cache reads instead so the files actually get written.
     */
    obs::RecorderOptions obs;

    /** One-off delay injection (off by default). Enabled injections
     *  are never cached. */
    DelayInjection delay;
};

/**
 * Seam into runApp's machine-driving loop. Without a driver runApp
 * calls Machine::run(); with one it delegates the whole launch-step-
 * finish sequence, which is how the checkpoint subsystem pauses a run
 * at a precise event count (fork-point capture) or starts it from a
 * snapshot instead of from scratch (warm start). A driver must
 * leave the machine fully finished (Machine::finishRun() called) and
 * return the finish tick, so every statistic runApp collects afterwards
 * means the same thing on every path.
 */
class RunDriver
{
  public:
    virtual ~RunDriver() = default;

    /** Drive @p m from fresh state to completion. */
    virtual Tick drive(Machine &m, const Machine::ProgramFactory &f) = 0;
};

/**
 * Run @p app under @p spec.
 * @param verify_fatal abort (vs. just flag) on checksum mismatch
 * @param auditor externally owned auditor to attach (e.g. one that
 *        collects violations instead of aborting); when null and
 *        spec.audit is set, an aborting auditor is used internally
 * @param driver optional machine-driving seam (checkpointing); null
 *        uses Machine::run()
 * @param critpath externally owned critical-path dependency recorder
 *        to attach (obs/critpath.hh)
 */
RunResult runApp(App &app, const RunSpec &spec, bool verify_fatal = true,
                 check::InvariantAuditor *auditor = nullptr,
                 RunDriver *driver = nullptr,
                 obs::CritPathRecorder *critpath = nullptr);

/** Convenience: build an App from a factory and run it. */
RunResult runApp(const AppFactory &factory, const RunSpec &spec,
                 bool verify_fatal = true,
                 check::InvariantAuditor *auditor = nullptr,
                 RunDriver *driver = nullptr,
                 obs::CritPathRecorder *critpath = nullptr);

} // namespace alewife::core

#endif // ALEWIFE_CORE_RUNNER_HH
