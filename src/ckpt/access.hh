/**
 * @file
 * The capture/verify implementation behind the public ckpt API.
 *
 * Access is the single class befriended by every checkpointable
 * component (EventQueue, Machine, Mesh, Cache, CoherenceController,
 * ...). Keeping all private-state reads inside one top-layer class
 * preserves layering: the components grant access with a one-line
 * friend declaration and never include a ckpt header.
 *
 * Internal to src/ckpt/ — everything outside goes through ckpt.hh.
 */

#ifndef ALEWIFE_CKPT_ACCESS_HH
#define ALEWIFE_CKPT_ACCESS_HH

#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "exp/json.hh"

namespace alewife {
class Machine;
struct MachineConfig;
}

namespace alewife::ckpt {

/**
 * Static-only capture engine. Each section builder returns the exp::Json
 * subtree for one snapshot section; capture() assembles them, digests
 * each, and wraps the result.
 */
class Access
{
  public:
    static CaptureResult capture(const Machine &m);
    static std::vector<std::string> verify(const Machine &m,
                                           const Snapshot &snap);

    /**
     * Swap in a warm-start variant configuration and recompute every
     * cfg-derived quantity (mesh timing tables). Caller has already
     * checked restoreSafeDelta().
     */
    static void applyConfigDelta(Machine &m, const MachineConfig &variant);

  private:
    static exp::Json configSection(const Machine &m);
    static exp::Json kernelSection(const Machine &m);
    /** Appends one error line per pending untagged event. */
    static exp::Json eventsSection(const Machine &m,
                                   std::vector<std::string> &errors);
    /** Parked NI-full pollers, in poll order. */
    static exp::Json parkedSection(const Machine &m);
    static exp::Json meshSection(const Machine &m);
    static exp::Json memorySection(const Machine &m);
    static exp::Json cachesSection(const Machine &m);
    static exp::Json pfbSection(const Machine &m);
    static exp::Json cohSection(const Machine &m);
    static exp::Json procsSection(const Machine &m);
    static exp::Json syncSection(const Machine &m);
    static exp::Json niSection(const Machine &m);
    static exp::Json crossSection(const Machine &m);
    static exp::Json countersSection(const Machine &m);
};

} // namespace alewife::ckpt

#endif // ALEWIFE_CKPT_ACCESS_HH
