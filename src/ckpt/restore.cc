#include "ckpt/restore.hh"

#include "ckpt/access.hh"

namespace alewife::ckpt {

bool
restoreSafeDelta(const MachineConfig &base, const MachineConfig &variant,
                 std::string *why)
{
    // Neutralize every whitelisted knob, then compare canonical keys:
    // any remaining difference is a non-restore-safe change.
    MachineConfig probe = variant;
    probe.name = base.name;
    probe.linkMBps = base.linkMBps;
    probe.hopNs = base.hopNs;
    probe.netFixedNs = base.netFixedNs;
    probe.idealNetLatencyCycles = base.idealNetLatencyCycles;
    probe.contextSwitchCycles = base.contextSwitchCycles;
    if (probe.canonicalKey() == base.canonicalKey())
        return true;
    if (why)
        *why = "variant config changes a non-restore-safe knob; only "
               "linkMBps, hopNs, netFixedNs, idealNetLatencyCycles and "
               "contextSwitchCycles may differ from the snapshot's "
               "configuration";
    return false;
}

ResumeResult
resume(Machine &m, const Machine::ProgramFactory &f, const Snapshot &snap)
{
    ResumeResult r;
    if (m.config().canonicalKey() != snap.configKey()) {
        r.error = "ckpt: resume config does not match the snapshot's "
                  "(canonicalKey differs)";
        return r;
    }
    if (m.eq().eventsExecuted() != 0) {
        r.error = "ckpt: resume requires a freshly constructed machine";
        return r;
    }

    const std::uint64_t target = snap.eventsExecuted();
    m.start(f);
    // Replay pauses on a real event, so one that differs from the
    // captured run can finish before the snapshot's count or pass it.
    m.stepUntilEvents(target);
    if (m.eq().eventsExecuted() != target) {
        r.error = "ckpt: replay reached " +
                  std::to_string(m.eq().eventsExecuted()) +
                  " events; the snapshot was taken at " +
                  std::to_string(target) +
                  " — the machine, program, cross-traffic or "
                  "perturbation differs from the captured run";
        return r;
    }

    const std::vector<std::string> diverged = Access::verify(m, snap);
    if (!diverged.empty()) {
        std::string err =
            "ckpt: post-replay audit diverged from the snapshot:";
        for (const std::string &d : diverged)
            err += "\n  " + d;
        r.error = std::move(err);
        return r;
    }
    r.ok = true;
    return r;
}

ResumeResult
resumeWarm(Machine &m, const Machine::ProgramFactory &f,
           const Snapshot &snap, const MachineConfig &variant)
{
    ResumeResult r;
    std::string why;
    if (!restoreSafeDelta(m.config(), variant, &why)) {
        r.error = "ckpt: warm start rejected: " + why;
        return r;
    }
    r = resume(m, f, snap);
    if (!r.ok)
        return r;
    Access::applyConfigDelta(m, variant);
    return r;
}

} // namespace alewife::ckpt
