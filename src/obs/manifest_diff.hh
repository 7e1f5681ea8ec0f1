/**
 * @file
 * Manifest loading, flattening and cross-run diffing.
 *
 * The testable core of tools/dee_report: load two or more
 * dee.run.v1..v7 manifests, flatten every numeric leaf to a dotted
 * metric path
 * ("results.harmonic_mean.DEE.0", "accounting.window.waste_fraction"),
 * render an aligned side-by-side diff, and build the rows that the
 * regression gate (obs/gate.hh) evaluates for --check, --profile-diff
 * and --hotspot-diff.
 *
 * Watch specs are "pattern[:+|-]" strings:
 *   - pattern is a dotted path with '*' wildcards matching any run of
 *     characters ("accounting.*.waste_fraction");
 *   - ':+' (the default) means higher is better — a drop beyond the
 *     threshold regresses; ':-' means lower is better — a rise beyond
 *     the threshold regresses.
 */

#ifndef DEE_OBS_MANIFEST_DIFF_HH
#define DEE_OBS_MANIFEST_DIFF_HH

#include <string>
#include <utility>
#include <vector>

#include "obs/gate.hh"
#include "obs/json.hh"

namespace dee::obs
{

/** One parsed manifest plus its flattened numeric metrics. */
struct LoadedManifest
{
    std::string path;   ///< where it was read from (label in diffs)
    std::string schema; ///< "dee.run.v1" through "dee.run.v7"
    std::string tool;   ///< emitting binary
    Json doc;           ///< the full document

    /** Every numeric leaf as (dotted path, value), document order. */
    std::vector<std::pair<std::string, double>> metrics;

    /** Looks up a flattened metric; false if absent. */
    bool metric(const std::string &key, double *value) const;
};

/**
 * Parses @p text as a manifest document. Accepts schema dee.run.v1
 * through v7 (older versions simply lack the newer sections).
 * @return true on success; false with *err describing the failure.
 */
bool parseManifest(const std::string &text, const std::string &path,
                   LoadedManifest *out, std::string *err);

/** parseManifest() over a file's contents. */
bool loadManifestFile(const std::string &path, LoadedManifest *out,
                      std::string *err);

/**
 * Appends every numeric leaf under @p node to @p out as
 * ("prefix.sub.path", value); array elements use their index as the
 * segment. Bools, strings and nulls are skipped.
 */
void flattenNumeric(const Json &node, const std::string &prefix,
                    std::vector<std::pair<std::string, double>> *out);

/** '*'-wildcard match over dotted metric paths (matches any chars). */
bool globMatch(const std::string &pattern, const std::string &text);

/** One watched metric pattern with its goodness direction. */
struct WatchSpec
{
    std::string pattern;
    bool higherIsBetter = true;
};

/**
 * Parses a comma-separated list of "pattern[:+|-]" watch specs.
 * @return false with *err naming the first spec whose pattern is empty.
 */
bool parseWatchList(const std::string &specs, std::vector<WatchSpec> *out,
                    std::string *err);

/**
 * --check rows: every baseline metric a watch matches (the first
 * matching watch sets the direction), no noise term, no floor.
 * @return false with *err naming a watch that matches no baseline
 * metric — a watch list that silently watches nothing is a usage
 * error, not a pass.
 */
bool watchRows(const LoadedManifest &baseline,
               const LoadedManifest &candidate,
               const std::vector<WatchSpec> &watches,
               std::vector<GateRow> *rows, std::string *err);

/** --profile-diff absolute floor: a branch's squashed slots must grow
 *  by more than this many slots to fail. */
constexpr double kProfileMinSlots = 64.0;

/**
 * --profile-diff rows: one per "profile.<scope>.branches.<pc>.
 * squashed_slots" metric of the candidate, lower is better, with the
 * kProfileMinSlots floor. A branch only the baseline has is an
 * improvement and gets no row.
 */
std::vector<GateRow> profileRows(const LoadedManifest &baseline,
                                 const LoadedManifest &candidate);

/** --hotspot-diff sample floor: phases with fewer candidate self
 *  samples are left out (their shares are noise, not shifts). */
constexpr double kHotspotMinSamples = 50.0;

/**
 * --hotspot-diff rows: one per "hotspots.phases.<phase>" of the
 * candidate with at least kHotspotMinSamples self samples, its self
 * share as a fraction, lower is better. The noise term is the 3-sigma
 * relative Poisson error of the two counts,
 * 3 * sqrt(1/baseline_self + 1/candidate_self) (3 / sqrt(candidate_self)
 * for a new phase), so shares estimated from few samples get a wider
 * gate automatically.
 * @return false with *err when either manifest carries no usable
 * "hotspots" section (run without --hotspots, or pre-v7).
 */
bool hotspotRows(const LoadedManifest &baseline,
                 const LoadedManifest &candidate,
                 std::vector<GateRow> *rows, std::string *err);

/**
 * Side-by-side diff of every metric matching @p filter (empty matches
 * all) across @p manifests, in first-manifest document order with
 * later-only metrics appended. With exactly two manifests a relative
 * "delta" column is added.
 */
std::string renderManifestDiff(
    const std::vector<LoadedManifest> &manifests,
    const std::string &filter = "");

} // namespace dee::obs

#endif // DEE_OBS_MANIFEST_DIFF_HH
