/**
 * @file
 * ASCII report formatting: the tables and series the benches print to
 * regenerate the paper's figures and tables.
 */

#ifndef ALEWIFE_CORE_REPORT_HH
#define ALEWIFE_CORE_REPORT_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "obs/predict.hh"

namespace alewife::core {

/** Figure 4 style: per-mechanism execution-time breakdown table. */
void printBreakdownTable(std::ostream &os, const std::string &title,
                         const std::vector<RunResult> &results);

/** Figure 5 style: per-mechanism communication-volume breakdown. */
void printVolumeTable(std::ostream &os, const std::string &title,
                      const std::vector<RunResult> &results);

/** Sweep series: one column per mechanism, one row per x value. */
void printSeries(std::ostream &os, const std::string &title,
                 const std::string &xlabel,
                 const std::vector<MechSeries> &series);

/** What printPredicted() ran, for the caller's cost line. */
struct PredictedCost
{
    std::uint64_t captureEvents = 0; ///< events of the captured runs
    std::uint64_t solves = 0;        ///< points solved
};

/**
 * The analytic overlay of a sweep (src/obs/predict.hh): per measured
 * series, one instrumented run of its mechanism at @p base captures the
 * dependency graph, and every point is then an O(events) solve. Prints
 * one line per mechanism, starting with @p indent: each point's
 * prediction with its error against the measured runtime, then the
 * MAPE. @p knobs are the raw sweep values parallel to every series'
 * points (bisection targets or clock rates, not the derived x axis);
 * @p targetFor maps one to a PredictTarget.
 */
PredictedCost
printPredicted(std::ostream &os, const std::string &indent,
               const AppFactory &factory, const MachineConfig &base,
               const std::vector<MechSeries> &measured,
               const std::vector<double> &knobs,
               const std::function<obs::PredictTarget(double)> &targetFor);

/** Table 1: parameter gallery. */
void printTable1(std::ostream &os);

/** Table 2: gallery normalized to local-miss latency. */
void printTable2(std::ostream &os);

/** One-line diagnostic counters for a run. */
void printCounters(std::ostream &os, const RunResult &r);

} // namespace alewife::core

#endif // ALEWIFE_CORE_REPORT_HH
