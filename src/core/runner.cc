#include "core/runner.hh"

#include <cmath>
#include <iostream>
#include <optional>

#include "check/auditor.hh"
#include "obs/critpath.hh"
#include "obs/recorder.hh"
#include "sim/logging.hh"

namespace alewife::core {

double
RunResult::avgCycles(TimeCat c) const
{
    // breakdown holds the per-node average already (see runApp).
    return breakdown.cycles(c);
}

RunResult
runApp(App &app, const RunSpec &spec, bool verify_fatal,
       check::InvariantAuditor *auditor, RunDriver *driver,
       obs::CritPathRecorder *critpath)
{
    Machine m(spec.machine, syncStyle(spec.mechanism),
              recvMode(spec.mechanism));
    if (spec.crossTraffic.bytesPerCycle > 0.0)
        m.addCrossTraffic(spec.crossTraffic);
    if (spec.perturb.enabled())
        m.setPerturbation(spec.perturb);

    // Attach the dependency recorder before anything schedules events,
    // so it sees sequence numbers from 0.
    if (critpath)
        critpath->attach(m);

    if (spec.delay.enabled()) {
        Machine *mp = &m;
        const NodeId dnode = spec.delay.node;
        const double stall = spec.delay.stallCycles;
        if (dnode >= m.nodes())
            ALEWIFE_FATAL("delay injection node ", dnode,
                          " out of range (machine has ", m.nodes(),
                          " nodes)");
        m.eq().schedule(cyclesToTicks(spec.delay.atCycles),
                        [mp, dnode, stall]() {
                            mp->procAt(dnode).chargeHandler(
                                stall, TimeCat::MsgOverhead);
                        });
    }

    std::optional<check::InvariantAuditor> owned;
    if (!auditor && spec.audit)
        auditor = &owned.emplace();
    if (auditor)
        auditor->attach(m);

    std::optional<obs::Recorder> rec;
    if (spec.obs.any()) {
        rec.emplace(spec.obs, m.nodes());
        rec->attach(m);
        if (auditor && rec->flight()) {
            // A violation dumps the recent-event window before the
            // auditor aborts or collects, so the failure is
            // immediately inspectable.
            obs::Recorder &r = *rec;
            auditor->setOnViolation(
                [&r](const check::InvariantAuditor::Violation &v) {
                    const std::string path = r.dumpFlight();
                    std::cerr << "flight recorder dump (invariant "
                              << v.invariant << "): " << path << "\n";
                });
        }
    }

    app.setup(m, spec.mechanism);

    const Machine::ProgramFactory programs =
        [&app](proc::Ctx &ctx) { return app.program(ctx); };
    const Tick finish =
        driver ? driver->drive(m, programs) : m.run(programs);

    if (auditor)
        auditor->finalize();
    if (rec) {
        app.exportMetrics(rec->metrics());
        rec->finalize();
        if (auditor)
            auditor->setOnViolation(nullptr); // recorder dies with us
    }

    RunResult r;
    r.app = app.name();
    r.mechanism = spec.mechanism;
    r.runtimeCycles = ticksToCycles(finish);

    TimeBreakdown sum = m.breakdownSum();
    for (std::size_t i = 0; i < sum.ticks.size(); ++i)
        r.breakdown.ticks[i] = sum.ticks[i] / m.nodes();

    r.volume = m.volume();
    r.counters = m.counters();
    r.simEvents = m.eq().eventsExecuted();

    r.checksum = app.checksum();
    r.reference = app.reference();
    const double denom = std::max(std::abs(r.reference), 1.0);
    r.verified =
        std::abs(r.checksum - r.reference) / denom <= app.tolerance();

    if (!r.verified && verify_fatal) {
        ALEWIFE_FATAL("result verification failed for ", r.app, " under ",
                      mechanismName(r.mechanism), ": got ", r.checksum,
                      " want ", r.reference);
    }
    return r;
}

RunResult
runApp(const AppFactory &factory, const RunSpec &spec, bool verify_fatal,
       check::InvariantAuditor *auditor, RunDriver *driver,
       obs::CritPathRecorder *critpath)
{
    auto app = factory();
    return runApp(*app, spec, verify_fatal, auditor, driver, critpath);
}

} // namespace alewife::core
