/**
 * @file
 * Restore drivers: resume a machine from a snapshot, cold or warm.
 *
 * Restore is state-verified deterministic reconstruction (snapshot.hh):
 * the caller builds a *fresh* machine with the snapshot's configuration,
 * resume() replays it to the snapshot's executed-event count (the
 * real-event boundary the capture paused at), and every
 * captured section is bit-audited against the snapshot before the
 * machine is handed back. A passing resume therefore continues the
 * original run exactly — resume-equals-straight-run is pinned by the
 * golden tests in tests/ckpt/.
 *
 * Warm start forks one snapshot into parameter variants: replay and
 * audit run under the *original* configuration (anything else would
 * diverge from the snapshot), then the variant's knobs are applied in
 * place and cfg-derived state (mesh timing tables) is recomputed. Only
 * restore-safe knobs may differ — knobs that alter timing of *future*
 * events without invalidating any already-captured state. The
 * whitelist lives in restoreSafeDelta(); docs/API.md documents why
 * each knob qualifies, and why niRetryCycles does not.
 */

#ifndef ALEWIFE_CKPT_RESTORE_HH
#define ALEWIFE_CKPT_RESTORE_HH

#include <string>

#include "ckpt/ckpt.hh"
#include "machine/machine.hh"

namespace alewife::ckpt {

/**
 * True iff @p variant differs from @p base only in restore-safe knobs:
 * linkMBps, hopNs, netFixedNs, idealNetLatencyCycles,
 * contextSwitchCycles (and the display name, which never affects
 * simulation). niRetryCycles is not one: the poll period of parked
 * packets is fixed for a machine's lifetime. When false and @p why is
 * non-null, *why names the restriction.
 */
bool restoreSafeDelta(const MachineConfig &base,
                      const MachineConfig &variant,
                      std::string *why = nullptr);

/** Outcome of a resume attempt. */
struct ResumeResult
{
    bool ok = false;
    /** Failure reason: config mismatch, a replay that ends before or
     *  steps past the snapshot's count, or the full divergence list
     *  from the post-replay audit. */
    std::string error;
};

/**
 * Replay @p m to @p snap's position and audit it. @p m must be freshly
 * constructed (never stepped) with a configuration whose canonicalKey()
 * matches the snapshot, with cross-traffic and perturbation applied
 * exactly as in the captured run; @p f must be the same program
 * factory. Replay steps real events (Machine::stepUntilEvents) and must
 * stop exactly at the count the capture paused at. On success the
 * machine is paused at the snapshot point — continue with
 * Machine::stepOne()/finishRun().
 */
ResumeResult resume(Machine &m, const Machine::ProgramFactory &f,
                    const Snapshot &snap);

/**
 * Warm-start fork: like resume(), but @p m continues under @p variant
 * after the audit passes. @p m must be built with the snapshot's
 * original configuration; @p variant must satisfy restoreSafeDelta()
 * against it (checked — a violation fails before any replay).
 */
ResumeResult resumeWarm(Machine &m, const Machine::ProgramFactory &f,
                        const Snapshot &snap,
                        const MachineConfig &variant);

} // namespace alewife::ckpt

#endif // ALEWIFE_CKPT_RESTORE_HH
