/**
 * @file
 * Structured emission of experiment results: RunResult and MechSeries
 * to JSON (schema-versioned, machine-readable) and CSV (spreadsheet-
 * ready), plus the inverse JSON decoding the result cache relies on.
 *
 * Schema: every emitted document carries {"schema": "alewife-results",
 * "version": kResultSchemaVersion}. Bump the version whenever a field
 * is renamed or its meaning changes; cache files with a different
 * version are ignored (treated as misses), never misread.
 */

#ifndef ALEWIFE_EXP_SERIALIZE_HH
#define ALEWIFE_EXP_SERIALIZE_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "exp/json.hh"

namespace alewife::exp {

/** Version of the emitted result schema. */
constexpr int kResultSchemaVersion = 1;

/** One RunResult as a JSON object (no schema header). */
Json resultToJson(const core::RunResult &r);

/**
 * Inverse of resultToJson. Numeric fields round-trip bit-exactly
 * (ticks and counters are integers; doubles are emitted with %.17g).
 * Counters absent from @p j decode to zero. Returns nullopt and sets
 * @p err to the first absent or mistyped field or unknown mechanism.
 */
std::optional<core::RunResult> resultFromJson(const Json &j,
                                              std::string *err);

/** resultFromJson(j, err), fatal on a malformed document. */
core::RunResult resultFromJson(const Json &j);

/** A batch of per-mechanism results (Figure 4/5 style), with schema. */
Json batchToJson(const std::string &app,
                 const std::vector<core::RunResult> &results);

/** A sweep (Figure 7-10 style): series x points, with schema. */
Json seriesToJson(const std::string &title, const std::string &xlabel,
                  const std::vector<core::MechSeries> &series);

/** CSV: one row per (mechanism) with breakdown + volume columns. */
void writeBatchCsv(std::ostream &os,
                   const std::vector<core::RunResult> &results);

/** CSV: one row per (mechanism, x) sweep point. */
void writeSeriesCsv(std::ostream &os, const std::string &xlabel,
                    const std::vector<core::MechSeries> &series);

} // namespace alewife::exp

#endif // ALEWIFE_EXP_SERIALIZE_HH
