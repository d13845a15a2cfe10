/**
 * @file
 * core::RunDriver implementations backed by the checkpoint subsystem.
 *
 * ForkPointDriver and WarmStartDriver are the two halves of a
 * warm-start sweep (exp/warm_start.hh): the first runs the base
 * configuration and captures an in-memory snapshot at a chosen event
 * count, the second replays variants from that snapshot under
 * restore-safe config deltas.
 */

#ifndef ALEWIFE_CKPT_DRIVER_HH
#define ALEWIFE_CKPT_DRIVER_HH

#include <cstdint>
#include <optional>

#include "ckpt/restore.hh"
#include "core/runner.hh"

namespace alewife::ckpt {

/**
 * Runs the machine to completion, capturing one in-memory snapshot
 * the moment the executed-event count reaches forkEvents.
 */
class ForkPointDriver : public core::RunDriver
{
  public:
    explicit ForkPointDriver(std::uint64_t fork_events)
        : forkEvents_(fork_events)
    {
    }

    Tick drive(Machine &m, const Machine::ProgramFactory &f) override;

    /** The captured fork snapshot; set iff the run reached forkEvents. */
    const std::optional<Snapshot> &snapshot() const { return snap_; }

  private:
    std::uint64_t forkEvents_;
    std::optional<Snapshot> snap_;
};

/**
 * Resumes a machine from a snapshot, switches it to a restore-safe
 * variant configuration, and runs it to completion. The machine must
 * be constructed with the snapshot's original configuration (resumeWarm
 * requirements apply).
 */
class WarmStartDriver : public core::RunDriver
{
  public:
    WarmStartDriver(const Snapshot &snap, MachineConfig variant)
        : snap_(snap), variant_(std::move(variant))
    {
    }

    Tick drive(Machine &m, const Machine::ProgramFactory &f) override;

  private:
    const Snapshot &snap_;
    MachineConfig variant_;
};

} // namespace alewife::ckpt

#endif // ALEWIFE_CKPT_DRIVER_HH
