/**
 * @file
 * Warm-start sweeps: fork one checkpoint into parameter variants.
 *
 * A warm-start sweep runs the base configuration once, captures a
 * snapshot at the first real event at or past a chosen executed-event
 * count (the fork point), then launches each variant from that
 * snapshot under a restore-safe config delta (ckpt::restoreSafeDelta —
 * network latency/bandwidth knobs; the NI poll period is not one).
 * Every variant replays to the fork point under the base
 * configuration, passes the bit-level restore audit, and only then
 * switches knobs, so the common prefix of all variants is provably the
 * same run.
 *
 * When the fork point precedes the first network activity, a variant's
 * result is bit-identical to a cold-start run under the variant config
 * (the tests in tests/ckpt/ pin this); a later fork point instead
 * answers "how does the rest of this run respond to new network
 * conditions" — the paper's sensitivity question asked mid-flight.
 */

#ifndef ALEWIFE_EXP_WARM_START_HH
#define ALEWIFE_EXP_WARM_START_HH

#include <cstdint>
#include <vector>

#include "core/runner.hh"

namespace alewife::exp {

/** A warm-start sweep: one base run forked into config variants. */
struct WarmStartSweep
{
    /** The base run; its machine config is the replay configuration. */
    core::RunSpec base;
    /**
     * Variant configs, each differing from base.machine only in
     * restore-safe knobs (rejected otherwise).
     */
    std::vector<MachineConfig> variants;
    /** Fork point as an executed-event count; the base run pauses on
     *  the first real event at or past it. */
    std::uint64_t forkEvents = 0;
};

/**
 * Run the sweep. Result [0] is the uninterrupted base run; [1..] are
 * the variants in order. Fatal if the base run completes before the
 * fork point or a variant delta is not restore-safe.
 */
std::vector<core::RunResult>
runWarmStartSweep(const core::AppFactory &app, const WarmStartSweep &sweep,
                  bool verify_fatal = true);

} // namespace alewife::exp

#endif // ALEWIFE_EXP_WARM_START_HH
