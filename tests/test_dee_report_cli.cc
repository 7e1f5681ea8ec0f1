/**
 * @file
 * End-to-end tests of the dee_report binary: every committed baseline
 * passes a self-diff in its gating mode, a perturbed candidate exits 1
 * naming the perturbed key, and usage errors (removed flags, watch
 * patterns that match nothing, malformed thresholds) exit 2 — never 1,
 * which would read as a regression, and never 0.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "obs/json.hh"

namespace dee
{
namespace
{

using obs::Json;

struct Outcome
{
    int status = -1;
    std::string output; ///< stdout and stderr together
};

/** Runs dee_report with @p args (shell-quoted by the caller). */
Outcome
report(const std::string &args)
{
    Outcome run;
    const std::string command =
        std::string(DEE_REPORT_BIN) + " " + args + " 2>&1";
    std::FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return run;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        run.output.append(buf, n);
    const int raw = pclose(pipe);
    run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return run;
}

std::string
baseline(const std::string &name)
{
    return std::string(DEE_BASELINES_DIR) + "/" + name;
}

/** Writes @p name's baseline, edited by @p edit, to a file unique to
 *  this test and process; returns its path. */
std::string
perturbed(const std::string &name, const std::function<void(Json &)> &edit)
{
    std::ifstream in(baseline(name));
    std::ostringstream text;
    text << in.rdbuf();
    Json doc;
    std::string err;
    EXPECT_TRUE(Json::parse(text.str(), &doc, &err)) << err;
    edit(doc);
    const std::string path =
        ::testing::TempDir() + "dee_report_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(getpid()) + ".json";
    std::ofstream(path) << doc.dump(2);
    return path;
}

std::string
gate(const std::string &mode, const std::string &base,
     const std::string &cand, const std::string &extra = "")
{
    return mode + " " + extra + " --baseline " + base + " " + cand;
}

TEST(DeeReportCli, EveryBaselinePassesItsSelfDiff)
{
    for (const auto &[mode, file] :
         {std::pair{"--check", "fig5_scale1.json"},
          std::pair{"--profile-diff", "fig5_scale1_profile.json"},
          std::pair{"--hotspot-diff", "fig5_scale1_hotspots.json"},
          std::pair{"--perf-diff", "bench_throughput.json"}}) {
        const Outcome run = report(gate(mode, baseline(file), baseline(file)));
        EXPECT_EQ(run.status, 0) << mode << "\n" << run.output;
        EXPECT_NE(run.output.find("OK: "), std::string::npos) << run.output;
    }
}

TEST(DeeReportCli, DefaultCheckWatchesThePapersResults)
{
    // Halve the last DEE-CD-MF harmonic-mean speedup: the default watch
    // list must see it.
    const std::string cand =
        perturbed("fig5_scale1.json", [](Json &doc) {
            Json &means = doc["results"]["harmonic_mean"];
            const std::vector<Json> old = means["DEE-CD-MF"].items();
            Json halved = Json::array();
            for (std::size_t i = 0; i < old.size(); ++i)
                halved.push(i + 1 == old.size()
                                ? Json(old[i].asDouble() / 2.0)
                                : old[i]);
            means["DEE-CD-MF"] = std::move(halved);
        });
    const Outcome run =
        report(gate("--check", baseline("fig5_scale1.json"), cand));
    EXPECT_EQ(run.status, 1) << run.output;
    EXPECT_NE(run.output.find("FAIL results.harmonic_mean.DEE-CD-MF."),
              std::string::npos)
        << run.output;
    std::remove(cand.c_str());
}

TEST(DeeReportCli, PerturbedProfileFailsNamingTheBranch)
{
    std::string key;
    const std::string cand =
        perturbed("fig5_scale1_profile.json", [&](Json &doc) {
            const auto &first = doc["profile"].members().front();
            const std::string scope = first.first;
            const std::string pc =
                first.second.find("branches")->members().front().first;
            Json &slots = doc["profile"][scope]["branches"][pc]
                             ["squashed_slots"];
            slots = Json(slots.asDouble() * 2.0 + 1000.0);
            key = "profile." + scope + ".branches." + pc +
                  ".squashed_slots";
        });
    const Outcome run = report(
        gate("--profile-diff", baseline("fig5_scale1_profile.json"), cand));
    EXPECT_EQ(run.status, 1) << run.output;
    EXPECT_NE(run.output.find("FAIL " + key + ":"), std::string::npos)
        << run.output;
    std::remove(cand.c_str());
}

TEST(DeeReportCli, PerturbedHotspotsFailAndWarnOnlyExitsZero)
{
    std::string key;
    const std::string cand =
        perturbed("fig5_scale1_hotspots.json", [&](Json &doc) {
            std::string phase;
            for (const auto &[name, entry] :
                 doc["hotspots"]["phases"].members())
                if (phase.empty() && entry.find("self")->asDouble() >= 50.0)
                    phase = name;
            ASSERT_FALSE(phase.empty());
            key = "hotspots.phases." + phase;
            Json &entry = doc["hotspots"]["phases"][phase];
            entry["self"] = Json(entry.find("self")->asDouble() * 3.0);
            entry["self_pct"] =
                Json(entry.find("self_pct")->asDouble() * 3.0);
        });
    const std::string base = baseline("fig5_scale1_hotspots.json");
    const Outcome run = report(gate("--hotspot-diff", base, cand));
    EXPECT_EQ(run.status, 1) << run.output;
    EXPECT_NE(run.output.find("FAIL " + key + ":"), std::string::npos)
        << run.output;

    const Outcome warn =
        report(gate("--hotspot-diff", base, cand, "--warn-only"));
    EXPECT_EQ(warn.status, 0) << warn.output;
    EXPECT_NE(warn.output.find("WARN " + key + ":"), std::string::npos)
        << warn.output;
    std::remove(cand.c_str());
}

TEST(DeeReportCli, HalvedThroughputFailsEvenWithAMalformedThreshold)
{
    const std::string cand =
        perturbed("bench_throughput.json", [](Json &doc) {
            const Json old = doc["targets"];
            for (const auto &[name, node] : old.members())
                doc["targets"][name]["kips"] =
                    Json(node.find("kips")->asDouble() / 2.0);
        });
    const std::string base = baseline("bench_throughput.json");
    const Outcome run = report(gate("--perf-diff", base, cand));
    EXPECT_EQ(run.status, 1) << run.output;
    EXPECT_NE(run.output.find("FAIL compress.DEE-CD-MF:"),
              std::string::npos)
        << run.output;

    // "nan" used to compare false against every move and let this
    // candidate pass with exit 0; "1e9x" parsed as 1e9.
    for (const char *bad : {"nan", "inf", "1e9x", "abc", "-0.1", "' 0.1'",
                            "''"}) {
        const Outcome rejected = report(gate(
            "--perf-diff", base, cand, std::string("--threshold ") + bad));
        EXPECT_EQ(rejected.status, 2) << bad << "\n" << rejected.output;
        EXPECT_NE(rejected.output.find("--threshold"), std::string::npos)
            << rejected.output;
    }
    std::remove(cand.c_str());
}

TEST(DeeReportCli, UsageErrorsExitTwo)
{
    const std::string fig5 = baseline("fig5_scale1.json");
    for (const char *removed :
         {"--min-slots 1", "--min-samples 10", "--noise-mult 4"}) {
        const Outcome run = report(gate("--check", fig5, fig5, removed));
        EXPECT_EQ(run.status, 2) << removed << "\n" << run.output;
    }

    const Outcome unmatched =
        report(gate("--check", fig5, fig5, "--watch 'results.*speedup*'"));
    EXPECT_EQ(unmatched.status, 2) << unmatched.output;
    EXPECT_NE(unmatched.output.find("results.*speedup*"),
              std::string::npos)
        << unmatched.output;

    const Outcome empty = report(gate("--check", fig5, fig5, "--watch ':+'"));
    EXPECT_EQ(empty.status, 2) << empty.output;

    // The hotspot gate on a run made without --hotspots.
    const Outcome no_section = report(gate("--hotspot-diff", fig5, fig5));
    EXPECT_EQ(no_section.status, 2) << no_section.output;
}

} // namespace
} // namespace dee
