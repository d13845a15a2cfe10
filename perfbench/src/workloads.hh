/**
 * @file
 * The campaign benchmark's workloads and the checks every round makes.
 *
 * A workload is a closed loop: one process, one client, and each sweep
 * point starts when the previous one finished. A round answers the
 * workload's whole campaign once; the program repeats rounds for the
 * measured time. Every answer is checked: simulated points against
 * their app's sequential reference, and every other way of answering a
 * point (cache hit, farm, warm start, traced run) bit for bit against
 * the cold simulation of the same point.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "inputs.hh"
#include "tracer.hh"

namespace perfbench {

/** Outcome counts of every check a run makes. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failures, for the report. */
    std::vector<std::string> failures;

    /** Count one checked answer; @p ok false counts it failed. */
    void check(bool ok, const std::string &what);
};

/** True when @p a and @p b agree bit for bit in runtime, checksum,
 *  verification and every machine counter. */
bool sameResult(const core::RunResult &a, const core::RunResult &b);

/** Faults planted to prove the checks fire. */
enum class Plant
{
    None,
    /** Truncate one warm-cache entry: the cache misses a stored point. */
    CorruptCache,
    /** Rewrite one warm-cache entry one cycle off: a wrong answer. */
    Mismatch,
};

/** What one round runs with. */
struct Env
{
    std::vector<Input> inputs;
    /** Per-point latency log of untraced rounds. */
    PointLog *log = nullptr;
    /** Non-null in the traced round. */
    TraceSession *trace = nullptr;
    Checks *checks = nullptr;
    /** Scratch directory for caches and queues; emptied per round. */
    std::string workDir;
    Plant plant = Plant::None;
};

/** One round: every answer in canonical order, plus per-round stats
 *  (mode costs, predictor error) by metric name. */
struct Round
{
    std::vector<core::RunResult> results;
    double wallS = 0.0;
    std::map<std::string, double> stats;
};

struct Workload
{
    const char *name;
    std::vector<Input> (*inputs)(std::uint64_t seed, Size size);
    Round (*round)(Env &env);
};

/** The workload named @p name; nullptr when there is none. */
const Workload *findWorkload(const std::string &name);

/** One Figure-3 row: measured cycles against the paper's range. */
struct CalibRow
{
    const char *what;
    double measured;
    double paperLo;
    double paperHi;

    /** Distance from the published range, in percent of its nearer
     *  edge; 0 inside the range. */
    double errPct() const;
};

/** Measure the eight Figure-3 miss penalties. */
std::vector<CalibRow> calibrate();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
