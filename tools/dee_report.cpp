/**
 * @file
 * dee_report: diff dee.run manifests and gate on regressions.
 *
 * Usage:
 *   dee_report MANIFEST...                    side-by-side metric diff
 *   dee_report --filter 'results.*' A B      restrict rows by glob
 *   dee_report GATE... --baseline BASE CAND  exit 1 on a regression
 *
 * Every gating mode builds rows from its own data and hands them to
 * the one regression gate (obs/gate.hh): a row fails when its
 * candidate is missing, or when it moves the bad way by more than the
 * mode's absolute floor AND, relative to the baseline, by more than
 * the threshold plus the row's noise term.
 *
 *   mode            rows                      threshold  noise / floor
 *   --check         watched manifest metrics  0.05       none
 *   --profile-diff  per-branch squashed slots 0.05       floor 64 slots
 *   --hotspot-diff  per-phase host self share 0.25       3-sigma Poisson;
 *                   (runs made with --hotspots)          phases under
 *                                                        50 samples out
 *   --perf-diff     per-target KIPS of two    0.10       4 x (MAD_b +
 *                   dee_bench artifacts                  MAD_c) / KIPS_b
 *
 * Gating modes compose: pass several and every gate runs against the
 * same baseline/candidate pair, every failure line prints, and the
 * exit status is 1 when any gate failed. (--perf-diff reads
 * dee.bench.v1 artifacts rather than run manifests, so it is usually
 * its own invocation.)
 *
 * Flags:
 *   --filter GLOB     only show metrics matching GLOB in the diff
 *   --baseline PATH   baseline manifest/artifact for the gating modes
 *   --watch SPECS     --check's comma-separated watch list, each
 *                     "pattern[:+|-]" (':+' higher is better — default;
 *                     ':-' lower is better); a pattern that matches no
 *                     baseline metric is a usage error. The default
 *                     watches the paper's results and the accounting:
 *                       results.benchmarks.*:+,
 *                       results.harmonic_mean.*:+,
 *                       accounting.*.waste_fraction:-,
 *                       accounting.*.useful_fraction:+
 *   --threshold REL   relative tolerance for every requested gate,
 *                     replacing the per-mode defaults above; a finite
 *                     number >= 0
 *   --warn-only       regressions print WARN lines and do not affect
 *                     the exit status (CI smoke mode for host shares,
 *                     which wobble across machines)
 *
 * Exit status: 0 clean, 1 regression in any gating mode, 2 usage /
 * load errors.
 *
 * Manifest paths are positional; the repo's Cli only does --flag pairs,
 * so parsing here is hand-rolled over argv.
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/manifest_diff.hh"
#include "obs/perf/perf_diff.hh"

namespace
{

using dee::obs::evaluateGate;
using dee::obs::GateReport;
using dee::obs::GateRow;
using dee::obs::LoadedManifest;
using dee::obs::perf::BenchArtifact;
using Rows = std::vector<GateRow>;

constexpr const char *kDefaultWatches =
    "results.benchmarks.*:+,results.harmonic_mean.*:+,"
    "accounting.*.waste_fraction:-,accounting.*.useful_fraction:+";

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: dee_report [options] MANIFEST.json [MANIFEST.json...]\n"
        "\n"
        "Diffs dee.run.v1..v7 manifests metric by metric. The gating\n"
        "modes compare one candidate against --baseline and exit 1 on\n"
        "a regression: a row fails when it is missing, or moves the bad\n"
        "way past the mode's floor and, relatively, past threshold +\n"
        "its noise term. Modes compose; every failure prints.\n"
        "\n"
        "gating modes (default threshold, noise term):\n"
        "  --check           watched metrics (0.05, none)\n"
        "  --profile-diff    per-branch squashed slots (0.05, floor 64\n"
        "                    slots)\n"
        "  --hotspot-diff    per-phase host-CPU self shares of runs made\n"
        "                    with --hotspots (0.25, 3-sigma Poisson;\n"
        "                    phases under 50 self samples left out)\n"
        "  --perf-diff       per-target KIPS of two dee_bench artifacts\n"
        "                    (0.10, 4 x the summed MADs / baseline KIPS)\n"
        "\n"
        "options:\n"
        "  --filter GLOB     only diff metrics matching GLOB\n"
        "  --baseline PATH   baseline manifest/artifact for the gates\n"
        "  --watch SPECS     --check's comma-separated \"pattern[:+|-]\"\n"
        "                    list (+ higher is better, the default;\n"
        "                    - lower is better); default\n"
        "                    results.benchmarks.*:+,\n"
        "                    results.harmonic_mean.*:+,\n"
        "                    accounting.*.waste_fraction:-,\n"
        "                    accounting.*.useful_fraction:+\n"
        "  --threshold REL   relative tolerance (finite, >= 0) for every\n"
        "                    requested gate\n"
        "  --warn-only       regressions warn instead of failing\n"
        "  --help            this text\n",
        to);
}

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "dee_report: %s\n", message.c_str());
    std::exit(2);
}

/** --threshold's one parser: the whole string, finite, >= 0. */
double
parseThreshold(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || !std::isfinite(value) || value < 0.0)
        die("--threshold needs a finite number >= 0, not '" + text + "'");
    return value;
}

/** One gating mode: its flag, what its rows are, its default
 *  threshold and its row builder. */
struct Mode
{
    const char *flag;
    const char *rowNoun;
    double threshold;
    bool readsBench; ///< dee.bench.v1 artifacts, not run manifests
    std::function<bool(Rows *, std::string *)> build;
    bool requested = false;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string filter;
    std::string baseline_path;
    std::string watch_specs = kDefaultWatches;
    std::optional<double> threshold; ///< unset: each mode's default
    bool warn_only = false;
    std::vector<std::string> paths;

    LoadedManifest base_run, cand_run;
    BenchArtifact base_bench, cand_bench;
    std::vector<dee::obs::WatchSpec> watches;
    Mode modes[] = {
        {"--check", "watched metric", 0.05, false,
         [&](Rows *rows, std::string *err) {
             return dee::obs::watchRows(base_run, cand_run, watches, rows,
                                        err);
         }},
        {"--profile-diff", "branch", 0.05, false,
         [&](Rows *rows, std::string *) {
             *rows = dee::obs::profileRows(base_run, cand_run);
             return true;
         }},
        {"--hotspot-diff", "host phase", 0.25, false,
         [&](Rows *rows, std::string *err) {
             return dee::obs::hotspotRows(base_run, cand_run, rows, err);
         }},
        {"--perf-diff", "bench target", 0.10, true,
         [&](Rows *rows, std::string *) {
             *rows = dee::obs::perf::throughputRows(base_bench, cand_bench);
             return true;
         }},
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die(arg + " needs a value");
            return argv[++i];
        };
        Mode *mode = nullptr;
        for (Mode &m : modes)
            mode = arg == m.flag ? &m : mode;
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (mode != nullptr) {
            mode->requested = true;
        } else if (arg == "--filter") {
            filter = value();
        } else if (arg == "--warn-only") {
            warn_only = true;
        } else if (arg == "--baseline") {
            baseline_path = value();
        } else if (arg == "--watch") {
            watch_specs = value();
        } else if (arg == "--threshold") {
            threshold = parseThreshold(value());
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "dee_report: unknown flag '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    auto load = [](const std::string &path) {
        LoadedManifest m;
        std::string err;
        if (!dee::obs::loadManifestFile(path, &m, &err))
            die(err);
        return m;
    };

    bool gating = false, runs = false, bench = false;
    for (const Mode &m : modes) {
        gating |= m.requested;
        (m.readsBench ? bench : runs) |= m.requested;
    }
    if (gating) {
        if (baseline_path.empty() || paths.size() != 1)
            die("gating modes need --baseline PATH and exactly one "
                "candidate file");
        std::string err;
        if (!dee::obs::parseWatchList(watch_specs, &watches, &err))
            die("--watch: " + err);
        if (runs) {
            base_run = load(baseline_path);
            cand_run = load(paths[0]);
        }
        if (bench &&
            (!dee::obs::perf::loadBenchArtifact(baseline_path,
                                                &base_bench, &err) ||
             !dee::obs::perf::loadBenchArtifact(paths[0], &cand_bench,
                                                &err)))
            die(err);

        // Every requested gate runs and every failure line prints; the
        // exit status is combined at the end, so one gate's regression
        // never hides another's.
        bool failed = false;
        for (const Mode &m : modes) {
            if (!m.requested)
                continue;
            Rows rows;
            if (!m.build(&rows, &err))
                die(err);
            const GateReport report =
                evaluateGate(std::move(rows), threshold.value_or(m.threshold));
            const std::size_t n = report.regressions();
            std::fputs(report.renderFailures(warn_only).c_str(), stdout);
            if (n == 0)
                std::printf("OK: no %s regressed (%zu compared)\n",
                            m.rowNoun, report.rows.size());
            else
                std::printf("%s: %zu of %zu %s(s) regressed vs %s\n",
                            warn_only ? "WARN" : "FAIL", n,
                            report.rows.size(), m.rowNoun,
                            baseline_path.c_str());
            failed |= n != 0 && !warn_only;
        }
        return failed ? 1 : 0;
    }

    if (paths.empty()) {
        usage(stderr);
        return 2;
    }
    std::vector<LoadedManifest> manifests;
    manifests.reserve(paths.size());
    for (const std::string &path : paths)
        manifests.push_back(load(path));
    std::fputs(dee::obs::renderManifestDiff(manifests, filter).c_str(),
               stdout);
    return 0;
}
