/**
 * @file
 * Versioned machine-state snapshot format.
 *
 * A Snapshot is a schema-tagged exp::Json document holding every piece
 * of captured machine state (see ckpt::Access for the capture itself)
 * plus per-section FNV-1a digests. All 64-bit state words are encoded
 * as 16-digit hex *strings*, never JSON numbers — exp::Json stores
 * numbers as doubles, which silently lose bits above 2^53, and a
 * snapshot whose tick counters round is worse than no snapshot.
 *
 * Restore strategy (the load-bearing design decision of src/ckpt/):
 * node programs are C++20 coroutines, whose frames cannot be
 * byte-serialized, so restore is *state-verified deterministic
 * reconstruction* — rebuild the machine from its config, replay to the
 * snapshot's executed-event count, then bit-audit every captured
 * section against the snapshot and fail loudly on any divergence. The
 * snapshot is not a passive record: every resumed run proves itself
 * against it. See docs/API.md ("Checkpoint/restore") for the captured-
 * vs-derived state table.
 */

#ifndef ALEWIFE_CKPT_SNAPSHOT_HH
#define ALEWIFE_CKPT_SNAPSHOT_HH

#include <cstdint>
#include <string>

#include "exp/json.hh"
#include "sim/types.hh"

namespace alewife::ckpt {

/** Schema tag of every snapshot document. */
inline constexpr const char *kCkptSchemaName = "alewife-ckpt";

/**
 * Snapshot format version. Bump whenever a section's layout or the
 * meaning of a captured value changes (2: `mesh.links[].busyTicks`
 * counts a parked packet's hold only where it extends the link's
 * horizon; 3: parked packets move from "events" to "parked", and
 * `kernel.seq` numbers real schedules only); the ResultCache key
 * includes this value, so a bump also invalidates every cached sweep
 * result.
 */
inline constexpr int kCkptSchemaVersion = 3;

/** Encode a 64-bit word as a fixed-width hex string ("0x...."). */
std::string hexU64(std::uint64_t v);

/** Decode hexU64 output. Fatal on malformed input. */
std::uint64_t parseHexU64(const std::string &s);

/**
 * A captured machine state. The document layout:
 *
 *   { "schema": "alewife-ckpt", "version": 3,
 *     "config":  { "key": <canonicalKey>, "nodes": N, ... },
 *     "kernel":  { "now", "seq", "executed", tie-break RNG },
 *     "events":  [ typed pending-event records, ascending seq ],
 *     "parked":  { poll period, NI-full pollers in poll order },
 *     "mesh":    { links, volume, counters, packet-id sequence },
 *     "memory":  { regions, backing store },
 *     "caches" / "pfb" / "coh" / "procs" / "ni": per-node arrays,
 *     "sync":    { barrier state }, "cross": { cross-traffic state },
 *     "counters": { MachineCounters by canonical name },
 *     "digests": { per-section FNV-1a of the compact dump } }
 */
struct Snapshot
{
    exp::Json doc;

    /** Replay position: events executed when the capture was taken. */
    std::uint64_t eventsExecuted() const;

    /** Simulated time of the capture. */
    Tick now() const;

    /** MachineConfig::canonicalKey() of the captured machine. */
    const std::string &configKey() const;

    /** Digest of one section's compact dump, from the digests table. */
    std::uint64_t sectionDigest(const std::string &section) const;
};

} // namespace alewife::ckpt

#endif // ALEWIFE_CKPT_SNAPSHOT_HH
