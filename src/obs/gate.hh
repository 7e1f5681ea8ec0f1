/**
 * @file
 * The one regression gate behind every dee_report gating mode.
 *
 * Each mode (--check, --profile-diff, --hotspot-diff, --perf-diff)
 * only builds rows from its own data; this module evaluates them all
 * under one rule and renders every failure in one line format. A row
 * compares a keyed baseline value against a candidate value:
 *
 *     move  = candidate - baseline          (baseline 0 when absent)
 *     rel   = move / |baseline|             (move itself when the
 *                                            baseline is 0 or absent)
 *     FAIL when the candidate is missing, or when the move in the bad
 *     direction exceeds abs_floor AND the relative move in the bad
 *     direction exceeds threshold + noise.
 *
 * The noise term is the row's own measurement uncertainty, relative to
 * the baseline: a MAD floor for repeated timings, a 3-sigma Poisson
 * error for sampled shares, or none for deterministic metrics. It is
 * added to the threshold, never max()ed with it, because the threshold
 * alone must carry the drift that within-run noise cannot see.
 */

#ifndef DEE_OBS_GATE_HH
#define DEE_OBS_GATE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace dee::obs
{

/** One keyed baseline/candidate comparison. */
struct GateRow
{
    std::string key;                 ///< what a FAIL line names
    std::optional<double> baseline;  ///< absent: new in the candidate
    std::optional<double> candidate; ///< absent: missing, always fails
    bool higherIsBetter = true;
    const char *noiseLabel = nullptr; ///< "MAD", "3-sigma"; null: none
    double noise = 0.0;    ///< relative, added to the threshold
    double absFloor = 0.0; ///< the bad-direction move must exceed this

    // Filled in by evaluateGate().
    double relChange = 0.0; ///< signed relative (or absolute) move
    bool regressed = false;
};

/** Every row of one gate after evaluation, in builder order. */
struct GateReport
{
    double threshold = 0.0;
    std::vector<GateRow> rows;

    std::size_t regressions() const;
    bool anyRegressed() const { return regressions() != 0; }
    /**
     * One "FAIL <key>: ..." line ("WARN" under @p warnOnly) per
     * regressed row, naming both values, the change and the tolerance
     * with its noise term. Empty when the gate is clean.
     */
    std::string renderFailures(bool warnOnly = false) const;
};

/** Applies the rule in the file comment to every row. */
GateReport evaluateGate(std::vector<GateRow> rows, double threshold);

} // namespace dee::obs

#endif // DEE_OBS_GATE_HH
