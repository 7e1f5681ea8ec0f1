/**
 * @file
 * Throughput-trajectory artifacts and their regression-gate rows.
 *
 * dee_bench emits one BENCH_throughput.json per run (schema
 * dee.bench.v1): per-target median KIPS (simulated kilo-instructions
 * per host second), the MAD of those repetitions, wall ms and host
 * IPC. This module loads two artifacts and turns them into rows for
 * the regression gate (obs/gate.hh), one per target, whose noise term
 * comes from the measurements' own MADs so CI jitter cannot trip the
 * gate:
 *
 *     noise  = kPerfNoiseMult * (base.mad + cand.mad) / base.kips
 *     FAIL when (base.kips - cand.kips) / base.kips
 *                  > threshold + noise
 *
 * Within-run repetition MADs measure scheduling jitter inside one
 * process but underestimate run-to-run variance (cache and ASLR
 * layout, frequency scaling), so the threshold must carry that
 * wobble on its own — which is why dee_report's --perf-diff default
 * threshold (10%) is looser than --check's 5%.
 *
 * Rising throughput and targets only the candidate has are never
 * failures; a baseline target missing from the candidate is (the
 * benchmark silently losing coverage must not read as "no
 * regression").
 */

#ifndef DEE_OBS_PERF_PERF_DIFF_HH
#define DEE_OBS_PERF_PERF_DIFF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/gate.hh"
#include "obs/json.hh"

namespace dee::obs::perf
{

/** One benchmark target's robust summary inside an artifact. */
struct BenchTarget
{
    std::string name;          ///< e.g. "DEE-CD-MF" or "Interpreter"
    double kips = 0.0;         ///< median simulated kilo-instr / host s
    double kipsMad = 0.0;      ///< MAD of the per-repetition KIPS
    double wallMs = 0.0;       ///< median wall ms per repetition
    double wallMsMad = 0.0;
    double hostIpc = 0.0;      ///< median host IPC; 0 without counters
    std::uint64_t simInstructions = 0; ///< instructions per repetition
    std::uint64_t repsKept = 0;
    std::uint64_t repsDropped = 0;
};

/** One parsed BENCH_throughput.json document. */
struct BenchArtifact
{
    std::string path;    ///< where it was read from (label in reports)
    std::string cells;   ///< the named cell set ("fig5", ...)
    int scale = 0;
    std::uint64_t reps = 0;
    std::uint64_t warmup = 0;
    bool hwCounters = false; ///< host counters were live for the run
    std::vector<BenchTarget> targets; ///< document order

    const BenchTarget *find(const std::string &name) const;
};

/** The artifact's JSON document (schema dee.bench.v1), target order
 *  preserved. */
Json benchArtifactToJson(const BenchArtifact &artifact);

/** Parses @p text as a dee.bench.v1 artifact.
 *  @return true on success; false with *err describing the failure. */
bool parseBenchArtifact(const std::string &text, const std::string &path,
                        BenchArtifact *out, std::string *err);

/** parseBenchArtifact() over a file's contents. */
bool loadBenchArtifact(const std::string &path, BenchArtifact *out,
                       std::string *err);

/** Multiplier of the --perf-diff MAD noise term (file comment). */
constexpr double kPerfNoiseMult = 4.0;

/**
 * --perf-diff rows: one per baseline target with positive KIPS (there
 * is no relative change against a dead one), higher is better, with
 * the MAD noise term of the file comment. Targets only the candidate
 * has get no row.
 */
std::vector<GateRow> throughputRows(const BenchArtifact &baseline,
                                    const BenchArtifact &candidate);

} // namespace dee::obs::perf

#endif // DEE_OBS_PERF_PERF_DIFF_HH
