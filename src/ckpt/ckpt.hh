/**
 * @file
 * Public checkpoint API: capture and verify.
 *
 * capture() walks every component of a paused Machine through the
 * ckpt::Access friend and produces a Snapshot (see snapshot.hh for the
 * format and the restore philosophy). Capture can fail — if any pending
 * event was scheduled through the untagged EventQueue::schedule()
 * overload the machine state is not serializable, and the error names
 * each offending schedule site so the fix (tag the site with an
 * EventMeta) is mechanical.
 *
 * verify() re-captures the live machine and compares it section by
 * section against a snapshot; an empty result means every serializable
 * bit of machine state matches. The restore driver (ckpt::resume)
 * treats a non-empty result as fatal divergence.
 */

#ifndef ALEWIFE_CKPT_CKPT_HH
#define ALEWIFE_CKPT_CKPT_HH

#include <optional>
#include <string>
#include <vector>

#include "ckpt/snapshot.hh"

namespace alewife {
class Machine;
}

namespace alewife::ckpt {

/** Outcome of a capture attempt. */
struct CaptureResult
{
    std::optional<Snapshot> snap;
    /** Non-empty iff capture failed (names every untagged event site). */
    std::string error;

    bool ok() const { return snap.has_value(); }
};

/**
 * Capture the complete serializable state of @p m. The machine must be
 * paused between events (never call from inside an event callback).
 */
CaptureResult capture(const Machine &m);

/** capture() that treats failure as fatal (tests, CLI paths). */
Snapshot save(const Machine &m);

/**
 * Compare the live machine against @p snap section by section.
 * @return one human-readable line per divergent section; empty when
 *         the machine matches the snapshot bit-for-bit
 */
std::vector<std::string> verify(const Machine &m, const Snapshot &snap);

} // namespace alewife::ckpt

#endif // ALEWIFE_CKPT_CKPT_HH
