/**
 * @file
 * Unit tests for the host-performance observability layer
 * (obs/perf/): ThroughputMeter arithmetic and scope isolation at any
 * --jobs value, the HwCounters env-forced fallback, dee_bench's
 * median/MAD repetition summaries, the --perf-diff gate (pass, fail,
 * noise floor, every-failure rendering), and the dee.run.v7 manifest's
 * host_perf section with its v3 compatibility path.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "runner/sweep.hh"

namespace dee
{
namespace
{

using obs::CellSink;
using obs::GateReport;
using obs::Heartbeat;
using obs::IsolationScope;
using obs::Json;
using obs::LoadedManifest;
using obs::Manifest;
using obs::parseManifest;
using obs::Registry;
using obs::perf::BenchArtifact;
using obs::perf::BenchTarget;
using obs::perf::HwCounters;
using obs::perf::HwSample;
using obs::perf::madAbout;
using obs::perf::median;
using obs::perf::parseBenchArtifact;
using obs::perf::SampleSummary;
using obs::perf::summarize;
using obs::perf::ThroughputMeter;

/** Counts occurrences of @p needle in @p haystack. */
std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0, pos = 0;
    while ((pos = haystack.find(needle, pos)) != std::string::npos) {
        ++count;
        pos += needle.size();
    }
    return count;
}

// ------------------------------------------------- ThroughputMeter

TEST(ThroughputMeter, PublishesCountersStatsAndDerivedScalars)
{
    CellSink sink;
    {
        IsolationScope scope(sink);
        ThroughputMeter meter("compress.SP");
        EXPECT_EQ(meter.scope(), "compress.SP");
        meter.addInstructions(1000);
        meter.addInstructions(500);
        meter.addCycles(300);
        EXPECT_EQ(meter.instructions(), 1500u);
        EXPECT_EQ(meter.cycles(), 300u);
        EXPECT_GE(meter.elapsedMs(), 0.0);
    }
    Registry &reg = sink.registry;
    obs::deriveScalars(reg);
    const std::uint64_t *runs =
        reg.findCounter("perf.compress.SP.runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(*runs, 1u);
    const std::uint64_t *instrs =
        reg.findCounter("perf.compress.SP.sim_instructions");
    ASSERT_NE(instrs, nullptr);
    EXPECT_EQ(*instrs, 1500u);
    const std::uint64_t *cycles =
        reg.findCounter("perf.compress.SP.sim_cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(*cycles, 300u);

    const RunningStat *wall =
        reg.findStat("perf.compress.SP.run_ms");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count(), 1u);
    ASSERT_GT(wall->sum(), 0.0);

    // kips is a pure function of the published counters and wall stat.
    const double *kips = reg.findScalar("perf.compress.SP.kips");
    ASSERT_NE(kips, nullptr);
    EXPECT_DOUBLE_EQ(*kips, 1500.0 / wall->sum());
    const double *mcps = reg.findScalar("perf.compress.SP.mcps");
    ASSERT_NE(mcps, nullptr);
    EXPECT_DOUBLE_EQ(*mcps, 300.0 / wall->sum() / 1000.0);
}

TEST(ThroughputMeter, AccumulatesAcrossRunsOfTheSameScope)
{
    CellSink sink;
    {
        IsolationScope scope(sink);
        for (int i = 0; i < 3; ++i) {
            ThroughputMeter meter("w.DEE");
            meter.addInstructions(100);
            meter.addCycles(10);
        }
    }
    Registry &reg = sink.registry;
    EXPECT_EQ(*reg.findCounter("perf.w.DEE.runs"), 3u);
    EXPECT_EQ(*reg.findCounter("perf.w.DEE.sim_instructions"), 300u);
    EXPECT_EQ(reg.findStat("perf.w.DEE.run_ms")->count(), 3u);
    // kips is derived over the full accumulation.
    obs::deriveScalars(reg);
    EXPECT_DOUBLE_EQ(*reg.findScalar("perf.w.DEE.kips"),
                     300.0 / reg.findStat("perf.w.DEE.run_ms")->sum());
}

TEST(ThroughputMeter, ScopesDoNotBleedIntoEachOther)
{
    CellSink sink;
    {
        IsolationScope scope(sink);
        {
            ThroughputMeter meter("a.SP");
            meter.addInstructions(111);
        }
        {
            ThroughputMeter meter("b.DEE");
            meter.addInstructions(222);
        }
    }
    EXPECT_EQ(*sink.registry.findCounter("perf.a.SP.sim_instructions"),
              111u);
    EXPECT_EQ(*sink.registry.findCounter("perf.b.DEE.sim_instructions"),
              222u);
    EXPECT_EQ(*sink.registry.findCounter("perf.a.SP.runs"), 1u);
    EXPECT_EQ(*sink.registry.findCounter("perf.b.DEE.runs"), 1u);
}

TEST(ThroughputMeter, DeriveScalarsAfterMerge)
{
    // Two cells of the same scope, merged: counters and the run_ms
    // stat add exactly, and kips is derived from the merged totals —
    // the invariant that makes perf.* correct at any --jobs value.
    CellSink a, b;
    {
        IsolationScope scope(a);
        ThroughputMeter meter("w.SP");
        meter.addInstructions(1000);
    }
    {
        IsolationScope scope(b);
        ThroughputMeter meter("w.SP");
        meter.addInstructions(3000);
    }
    Registry merged;
    merged.merge(a.registry);
    merged.merge(b.registry);
    EXPECT_EQ(*merged.findCounter("perf.w.SP.sim_instructions"), 4000u);
    EXPECT_EQ(*merged.findCounter("perf.w.SP.runs"), 2u);
    EXPECT_EQ(merged.findStat("perf.w.SP.run_ms")->count(), 2u);

    // Cells store no kips; it exists once derived from the merge.
    EXPECT_EQ(merged.findScalar("perf.w.SP.kips"), nullptr);
    obs::deriveScalars(merged);
    EXPECT_DOUBLE_EQ(*merged.findScalar("perf.w.SP.kips"),
                     4000.0 /
                         merged.findStat("perf.w.SP.run_ms")->sum());
}

/** Runs a tiny metered sweep at @p jobs and returns the merged
 *  deterministic perf counters (timing excluded). */
std::string
meteredSweepCounters(int jobs)
{
    obs::Registry::process().clear();
    runner::SweepOptions options;
    options.jobs = jobs;
    runner::runCells(8, options, [](std::size_t i) {
        ThroughputMeter meter(i % 2 == 0 ? "even.SP" : "odd.DEE");
        meter.addInstructions(100 * (i + 1));
        meter.addCycles(10 * (i + 1));
    });
    std::string out;
    for (const std::string &path : obs::Registry::process().paths()) {
        if (path.compare(0, 5, "perf.") != 0)
            continue;
        if (const std::uint64_t *c =
                obs::Registry::process().findCounter(path))
            out += path + "=" + std::to_string(*c) + "\n";
    }
    obs::Registry::process().clear();
    return out;
}

TEST(ThroughputMeter, ScopeCountersIdenticalAcrossJobs)
{
    const std::string serial = meteredSweepCounters(1);
    const std::string parallel = meteredSweepCounters(4);
    EXPECT_EQ(serial, parallel);
    // 8 cells split over two scopes: 4 runs each, instruction totals
    // 100*(1+3+5+7) and 100*(2+4+6+8).
    EXPECT_NE(serial.find("perf.even.SP.runs=4"), std::string::npos)
        << serial;
    EXPECT_NE(serial.find("perf.even.SP.sim_instructions=1600"),
              std::string::npos)
        << serial;
    EXPECT_NE(serial.find("perf.odd.DEE.sim_instructions=2000"),
              std::string::npos)
        << serial;
}

// ------------------------------------------------------- HwCounters

TEST(HwCounters, EnvVariableForcesTimingOnlyFallback)
{
    ASSERT_EQ(setenv("DEE_PERF_HW", "0", 1), 0);
    EXPECT_TRUE(HwCounters::envDisabled());
    EXPECT_FALSE(HwCounters::available());
    const HwSample sample = HwCounters::threadLocal().read();
    EXPECT_FALSE(sample.valid);

    // A meter under the forced fallback publishes timing but no
    // host_* counters.
    CellSink sink;
    {
        IsolationScope scope(sink);
        ThroughputMeter meter("env.SP");
        meter.addInstructions(10);
    }
    EXPECT_NE(sink.registry.findCounter("perf.env.SP.sim_instructions"),
              nullptr);
    EXPECT_EQ(sink.registry.findCounter("perf.env.SP.host_cycles"),
              nullptr);
    EXPECT_EQ(sink.registry.findScalar("perf.env.SP.host_ipc"),
              nullptr);
    unsetenv("DEE_PERF_HW");
}

TEST(HwCounters, ReadNeverFailsHard)
{
    // Whatever the host supports (bare metal, VM, seccomp'd
    // container), read() must return — valid or not — rather than
    // error out.
    const HwSample sample = HwCounters::threadLocal().read();
    if (sample.valid) {
        EXPECT_TRUE(HwCounters::threadLocal().enabled());
    }
    SUCCEED();
}

TEST(HwSample, DeltaFromPropagatesValidity)
{
    HwSample begin, end;
    begin.valid = true;
    begin.cycles = 100;
    begin.instructions = 50;
    end.valid = true;
    end.cycles = 300;
    end.instructions = 250;
    const HwSample delta = end.deltaFrom(begin);
    EXPECT_TRUE(delta.valid);
    EXPECT_EQ(delta.cycles, 200u);
    EXPECT_EQ(delta.instructions, 200u);

    HwSample invalid;
    EXPECT_FALSE(end.deltaFrom(invalid).valid);
    EXPECT_FALSE(invalid.deltaFrom(begin).valid);
}

// ------------------------------------------------------ bench stats

TEST(BenchStats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchStats, MadIsMedianAbsoluteDeviation)
{
    // xs = {1,2,3,4,100}: median 3, |dev| = {2,1,0,1,97} -> MAD 1.
    EXPECT_DOUBLE_EQ(madAbout({1.0, 2.0, 3.0, 4.0, 100.0}, 3.0), 1.0);
    EXPECT_DOUBLE_EQ(madAbout({}, 0.0), 0.0);
}

TEST(BenchStats, SummarizeRejectsOutliersAndRecomputes)
{
    // One wild sample among stable ones: rejected, and the summary is
    // recomputed over the survivors.
    const SampleSummary s =
        summarize({10.0, 10.5, 9.5, 10.2, 100.0}, 3.5);
    EXPECT_EQ(s.kept, 4u);
    EXPECT_EQ(s.dropped, 1u);
    EXPECT_DOUBLE_EQ(s.median, 10.1);
    EXPECT_LT(s.mad, 1.0);
}

TEST(BenchStats, ZeroMadKeepsEverySample)
{
    // All-identical samples give MAD 0; rejection must not divide by
    // the zero scale and drop everything.
    const SampleSummary s = summarize({5.0, 5.0, 5.0, 5.0}, 3.5);
    EXPECT_EQ(s.kept, 4u);
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_DOUBLE_EQ(s.median, 5.0);
}

TEST(BenchStats, NonPositiveKDisablesRejection)
{
    const SampleSummary s = summarize({1.0, 2.0, 1000.0}, 0.0);
    EXPECT_EQ(s.kept, 3u);
    EXPECT_EQ(s.dropped, 0u);
}

TEST(BenchStats, EmptyInputYieldsEmptySummary)
{
    const SampleSummary s = summarize({}, 3.5);
    EXPECT_EQ(s.kept, 0u);
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_DOUBLE_EQ(s.median, 0.0);
}

// -------------------------------------------------------- perf diff

/** The --perf-diff gate: throughput rows evaluated at @p threshold. */
GateReport
checkPerf(const BenchArtifact &base, const BenchArtifact &cand,
          double threshold)
{
    return obs::evaluateGate(obs::perf::throughputRows(base, cand),
                             threshold);
}

BenchTarget
target(const std::string &name, double kips, double mad)
{
    BenchTarget t;
    t.name = name;
    t.kips = kips;
    t.kipsMad = mad;
    return t;
}

TEST(PerfDiff, SmallDropsAndImprovementsPass)
{
    BenchArtifact base, cand;
    base.targets = {target("a", 100.0, 0.0), target("b", 100.0, 0.0)};
    cand.targets = {target("a", 98.0, 0.0), target("b", 140.0, 0.0)};
    const GateReport report =
        checkPerf(base, cand, 0.05);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_FALSE(report.anyRegressed());
    EXPECT_DOUBLE_EQ(report.rows[0].relChange, -0.02);
    EXPECT_DOUBLE_EQ(report.rows[1].relChange, 0.40);
}

TEST(PerfDiff, LargeDropFailsAndMissingTargetFails)
{
    BenchArtifact base, cand;
    base.targets = {target("a", 100.0, 0.0), target("gone", 50.0, 0.0)};
    cand.targets = {target("a", 80.0, 0.0)};
    const GateReport report =
        checkPerf(base, cand, 0.05);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_TRUE(report.anyRegressed());
    EXPECT_TRUE(report.rows[0].regressed);
    EXPECT_TRUE(report.rows[0].candidate.has_value());
    EXPECT_TRUE(report.rows[1].regressed);
    EXPECT_FALSE(report.rows[1].candidate.has_value());
}

TEST(PerfDiff, NoiseFloorWidensTheGate)
{
    // An 8% drop fails at threshold 5% with quiet measurements, but
    // noisy repetitions (MADs) widen the tolerance additively:
    // floor = 4 * (0.5 + 0.5) / 100 = 4% -> tolerance 9%.
    BenchArtifact base, cand;
    base.targets = {target("t", 100.0, 0.5)};
    cand.targets = {target("t", 92.0, 0.5)};
    const GateReport noisy =
        checkPerf(base, cand, 0.05);
    EXPECT_DOUBLE_EQ(noisy.rows[0].noise, 0.04);
    EXPECT_FALSE(noisy.anyRegressed());

    base.targets = {target("t", 100.0, 0.0)};
    cand.targets = {target("t", 92.0, 0.0)};
    const GateReport quiet =
        checkPerf(base, cand, 0.05);
    EXPECT_DOUBLE_EQ(quiet.rows[0].noise, 0.0);
    EXPECT_TRUE(quiet.anyRegressed());
}

TEST(PerfDiff, ZeroKipsBaselineTargetsAreSkipped)
{
    BenchArtifact base, cand;
    base.targets = {target("dead", 0.0, 0.0), target("t", 10.0, 0.0)};
    cand.targets = {target("t", 10.0, 0.0)};
    const GateReport report =
        checkPerf(base, cand, 0.05);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_EQ(report.rows[0].key, "t");
}

TEST(PerfDiff, RenderFailuresListsEveryFailureNotJustTheFirst)
{
    BenchArtifact base, cand;
    base.targets = {target("a", 100.0, 0.0), target("b", 100.0, 0.0),
                    target("gone", 100.0, 0.0),
                    target("ok", 100.0, 0.0)};
    cand.targets = {target("a", 50.0, 0.0), target("b", 60.0, 0.0),
                    target("ok", 101.0, 0.0)};
    const GateReport report =
        checkPerf(base, cand, 0.05);
    const std::string failures = report.renderFailures();
    EXPECT_EQ(countOf(failures, "FAIL "), 3u) << failures;
    EXPECT_NE(failures.find("FAIL a:"), std::string::npos);
    EXPECT_NE(failures.find("FAIL b:"), std::string::npos);
    EXPECT_NE(failures.find("FAIL gone:"), std::string::npos);
    EXPECT_EQ(failures.find("ok"), std::string::npos);

    const std::string warnings = report.renderFailures(true);
    EXPECT_EQ(countOf(warnings, "WARN "), 3u) << warnings;
    EXPECT_EQ(warnings.find("FAIL"), std::string::npos);
    EXPECT_NE(failures.find("FAIL gone: missing from candidate"),
              std::string::npos);
}

TEST(PerfDiff, ArtifactJsonRoundTrips)
{
    BenchArtifact artifact;
    artifact.cells = "quick";
    artifact.scale = 2;
    artifact.reps = 5;
    artifact.warmup = 1;
    artifact.hwCounters = true;
    BenchTarget t = target("compress.SP", 1234.5, 6.7);
    t.wallMs = 8.9;
    t.wallMsMad = 0.12;
    t.hostIpc = 1.8;
    t.simInstructions = 100000;
    t.repsKept = 4;
    t.repsDropped = 1;
    artifact.targets.push_back(t);

    BenchArtifact back;
    std::string err;
    ASSERT_TRUE(parseBenchArtifact(
        benchArtifactToJson(artifact).dump(2), "mem", &back, &err))
        << err;
    EXPECT_EQ(back.cells, "quick");
    EXPECT_EQ(back.scale, 2);
    EXPECT_EQ(back.reps, 5u);
    EXPECT_EQ(back.warmup, 1u);
    EXPECT_TRUE(back.hwCounters);
    ASSERT_EQ(back.targets.size(), 1u);
    const BenchTarget *rt = back.find("compress.SP");
    ASSERT_NE(rt, nullptr);
    EXPECT_DOUBLE_EQ(rt->kips, 1234.5);
    EXPECT_DOUBLE_EQ(rt->kipsMad, 6.7);
    EXPECT_DOUBLE_EQ(rt->wallMs, 8.9);
    EXPECT_DOUBLE_EQ(rt->hostIpc, 1.8);
    EXPECT_EQ(rt->simInstructions, 100000u);
    EXPECT_EQ(rt->repsKept, 4u);
    EXPECT_EQ(rt->repsDropped, 1u);
    EXPECT_EQ(back.find("nope"), nullptr);
}

TEST(PerfDiff, RejectsNonArtifactDocuments)
{
    BenchArtifact out;
    std::string err;
    EXPECT_FALSE(parseBenchArtifact("{\"schema\":\"dee.run.v4\"}",
                                    "x.json", &out, &err));
    EXPECT_NE(err.find("dee.bench.v1"), std::string::npos);
    EXPECT_FALSE(parseBenchArtifact("not json", "x.json", &out, &err));
}

// ------------------------------------------------- manifest schema

TEST(ManifestPerf, V4CarriesHostPerfSection)
{
    Registry reg;
    {
        Registry *prev = Registry::setCurrent(&reg);
        {
            ThroughputMeter meter("compress.SP");
            meter.addInstructions(5000);
        }
        Registry::setCurrent(prev);
    }
    Manifest manifest("test_tool");
    const Json doc = manifest.toJson(reg);
    EXPECT_EQ(doc.find("schema")->asString(), "dee.run.v7");
    const Json *host_perf = doc.find("host_perf");
    ASSERT_NE(host_perf, nullptr);
    ASSERT_NE(host_perf->find("hw_counters"), nullptr);
    // Stats JSON nests on dots: scopes.compress.SP.{...}.
    const Json *scopes = host_perf->find("scopes");
    ASSERT_NE(scopes, nullptr);
    const Json *compress = scopes->find("compress");
    ASSERT_NE(compress, nullptr);
    ASSERT_NE(compress->find("SP"), nullptr);

    // The v4 reader flattens host_perf numerics into dotted metrics.
    LoadedManifest back;
    std::string err;
    ASSERT_TRUE(parseManifest(doc.dump(2), "t.json", &back, &err))
        << err;
    EXPECT_EQ(back.schema, "dee.run.v7");
    double value = 0.0;
    ASSERT_TRUE(back.metric(
        "host_perf.scopes.compress.SP.sim_instructions", &value));
    EXPECT_DOUBLE_EQ(value, 5000.0);
    ASSERT_TRUE(
        back.metric("stats.perf.compress.SP.sim_instructions", &value));
    EXPECT_DOUBLE_EQ(value, 5000.0);
}

TEST(ManifestPerf, V3DocumentsStillParse)
{
    Json doc = Json::object();
    doc["schema"] = Json("dee.run.v3");
    doc["tool"] = Json("old_tool");
    Json results = Json::object();
    results["speedup"] = Json(3.1);
    doc["results"] = std::move(results);

    LoadedManifest back;
    std::string err;
    ASSERT_TRUE(parseManifest(doc.dump(2), "old.json", &back, &err))
        << err;
    EXPECT_EQ(back.schema, "dee.run.v3");
    double value = 0.0;
    ASSERT_TRUE(back.metric("results.speedup", &value));
    EXPECT_DOUBLE_EQ(value, 3.1);
    // No host_perf section in a v3 doc: simply no such metrics.
    EXPECT_FALSE(back.metric("host_perf.scopes.x", &value));
}

// -------------------------------------------------- heartbeat KIPS

TEST(HeartbeatPerf, StatusLineCarriesKipsWhenInstructionsTicked)
{
    Heartbeat plain("bench", false);
    plain.tick(1);
    EXPECT_EQ(plain.statusLine().find("KIPS"), std::string::npos);

    Heartbeat metered("bench", false);
    metered.tick(1, 50'000);
    EXPECT_EQ(metered.done(), 1u);
    EXPECT_NE(metered.statusLine().find("KIPS"), std::string::npos);
}

} // namespace
} // namespace dee
