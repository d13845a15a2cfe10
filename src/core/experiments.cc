#include "core/experiments.hh"

#include "sim/logging.hh"

namespace alewife::core {

namespace {

/**
 * Sweeps build a flat job list (one entry per mechanism x point),
 * execute the whole batch through one SweepEngine pass, then reshape
 * the flat, submission-ordered results back into per-mechanism series.
 */
std::vector<RunResult>
runBatch(const AppFactory &app, const std::vector<RunSpec> &specs,
         const exp::EngineOptions &opts)
{
    std::vector<exp::Job> jobs;
    jobs.reserve(specs.size());
    for (const auto &spec : specs)
        jobs.push_back(exp::Job{app, spec, opts.appKey});
    exp::SweepEngine engine(opts);
    return engine.run(jobs);
}

} // namespace

SweepPlan
planSweep(const MachineConfig &base, const SweepRequest &req)
{
    SweepPlan plan;
    plan.kind = req.kind;
    plan.mechs = req.mechs;

    // The per-kind loops below define the canonical submission order
    // (outer mechanisms, inner points). Nothing may reorder them: the
    // flat index doubles as the farm job id, and distributed runs are
    // bit-identical to local ones precisely because both sides walk
    // this list the same way.
    switch (req.kind) {
    case SweepKind::None:
        for (Mechanism m : req.mechs) {
            RunSpec spec;
            spec.machine = base;
            spec.mechanism = m;
            plan.specs.push_back(std::move(spec));
        }
        break;

    case SweepKind::Bisection: {
        const double native = base.bisectionBytesPerCycle();
        for (Mechanism m : req.mechs) {
            std::vector<double> xs;
            std::vector<std::size_t> idx;
            for (double target : req.points) {
                // Cross traffic can only lower the native bisection,
                // and lowering it to 0 or below would saturate it.
                if (!(target > 0.0 && target <= native))
                    ALEWIFE_FATAL("cannot emulate a bisection of ",
                                  target, " bytes/cycle: it must be "
                                  "above 0 and at most the native ",
                                  native, " bytes/cycle");
                RunSpec spec;
                spec.machine = base;
                spec.mechanism = m;
                spec.crossTraffic.bytesPerCycle = native - target;
                spec.crossTraffic.messageBytes = req.crossMsgBytes;
                idx.push_back(plan.specs.size());
                plan.specs.push_back(std::move(spec));
                xs.push_back(target);
            }
            plan.xs.push_back(std::move(xs));
            plan.specIndex.push_back(std::move(idx));
        }
        break;
    }

    case SweepKind::MsgLen:
        for (Mechanism m : req.mechs) {
            std::vector<double> xs;
            std::vector<std::size_t> idx;
            for (double len : req.points) {
                RunSpec spec;
                spec.machine = base;
                spec.mechanism = m;
                spec.crossTraffic.bytesPerCycle =
                    req.crossBytesPerCycle;
                spec.crossTraffic.messageBytes =
                    static_cast<std::uint32_t>(len);
                idx.push_back(plan.specs.size());
                plan.specs.push_back(std::move(spec));
                xs.push_back(len);
            }
            plan.xs.push_back(std::move(xs));
            plan.specIndex.push_back(std::move(idx));
        }
        break;

    case SweepKind::Clock:
        for (Mechanism m : req.mechs) {
            std::vector<double> xs;
            std::vector<std::size_t> idx;
            for (double mhz : req.points) {
                RunSpec spec;
                spec.machine = base;
                spec.machine.procMhz = mhz;
                spec.mechanism = m;
                // x = one-way latency of a 24-byte packet in cycles.
                xs.push_back(spec.machine.onewayLatencyCycles(
                    24, static_cast<int>(
                            spec.machine.averageHops() + 0.5)));
                idx.push_back(plan.specs.size());
                plan.specs.push_back(std::move(spec));
            }
            plan.xs.push_back(std::move(xs));
            plan.specIndex.push_back(std::move(idx));
        }
        break;

    case SweepKind::IdealLatency:
        // Shared-memory mechanisms contribute one job per latency
        // point; message passing is asynchronous and unacknowledged,
        // so the paper plots it flat: one job at the base machine,
        // replicated across the axis.
        for (Mechanism m : req.mechs) {
            std::vector<double> xs;
            std::vector<std::size_t> idx;
            if (isSharedMemory(m)) {
                for (double lat : req.points) {
                    RunSpec spec;
                    spec.machine = base;
                    spec.machine.idealNet = true;
                    spec.machine.idealNetLatencyCycles = lat;
                    spec.mechanism = m;
                    idx.push_back(plan.specs.size());
                    plan.specs.push_back(std::move(spec));
                    xs.push_back(lat);
                }
            } else {
                RunSpec spec;
                spec.machine = base;
                spec.mechanism = m;
                const std::size_t flat = plan.specs.size();
                plan.specs.push_back(std::move(spec));
                for (double lat : req.points) {
                    idx.push_back(flat);
                    xs.push_back(lat);
                }
            }
            plan.xs.push_back(std::move(xs));
            plan.specIndex.push_back(std::move(idx));
        }
        break;
    }
    return plan;
}

std::vector<MechSeries>
seriesFromPlan(const SweepPlan &plan,
               const std::vector<RunResult> &results)
{
    std::vector<MechSeries> out;
    out.reserve(plan.mechs.size());
    for (std::size_t i = 0; i < plan.mechs.size(); ++i) {
        MechSeries s;
        s.mech = plan.mechs[i];
        for (std::size_t j = 0; j < plan.xs[i].size(); ++j)
            s.points.push_back(
                {plan.xs[i][j], results[plan.specIndex[i][j]]});
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<RunResult>
runAllMechanisms(const AppFactory &app, const MachineConfig &base,
                 const std::vector<Mechanism> &mechs,
                 const exp::EngineOptions &opts)
{
    SweepRequest req;
    req.kind = SweepKind::None;
    req.mechs = mechs;
    return runBatch(app, planSweep(base, req).specs, opts);
}

std::vector<MechSeries>
bisectionSweep(const AppFactory &app, const MachineConfig &base,
               const std::vector<Mechanism> &mechs,
               const std::vector<double> &bisections,
               std::uint32_t cross_msg_bytes,
               const exp::EngineOptions &opts)
{
    SweepRequest req;
    req.kind = SweepKind::Bisection;
    req.mechs = mechs;
    req.points = bisections;
    req.crossMsgBytes = cross_msg_bytes;
    const SweepPlan plan = planSweep(base, req);
    return seriesFromPlan(plan, runBatch(app, plan.specs, opts));
}

std::vector<MechSeries>
msgLenSweep(const AppFactory &app, const MachineConfig &base,
            const std::vector<Mechanism> &mechs,
            double cross_bytes_per_cycle,
            const std::vector<std::uint32_t> &lengths,
            const exp::EngineOptions &opts)
{
    SweepRequest req;
    req.kind = SweepKind::MsgLen;
    req.mechs = mechs;
    for (std::uint32_t len : lengths)
        req.points.push_back(static_cast<double>(len));
    req.crossBytesPerCycle = cross_bytes_per_cycle;
    const SweepPlan plan = planSweep(base, req);
    return seriesFromPlan(plan, runBatch(app, plan.specs, opts));
}

std::vector<MechSeries>
clockSweep(const AppFactory &app, const MachineConfig &base,
           const std::vector<Mechanism> &mechs,
           const std::vector<double> &mhz_values,
           const exp::EngineOptions &opts)
{
    SweepRequest req;
    req.kind = SweepKind::Clock;
    req.mechs = mechs;
    req.points = mhz_values;
    const SweepPlan plan = planSweep(base, req);
    return seriesFromPlan(plan, runBatch(app, plan.specs, opts));
}

std::vector<MechSeries>
idealLatencySweep(const AppFactory &app, const MachineConfig &base,
                  const std::vector<Mechanism> &mechs,
                  const std::vector<double> &latencies,
                  const exp::EngineOptions &opts)
{
    SweepRequest req;
    req.kind = SweepKind::IdealLatency;
    req.mechs = mechs;
    req.points = latencies;
    const SweepPlan plan = planSweep(base, req);
    return seriesFromPlan(plan, runBatch(app, plan.specs, opts));
}

} // namespace alewife::core
