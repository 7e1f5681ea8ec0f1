/**
 * @file
 * Tests for the speculation profiler (src/obs/profile/): the per-branch
 * attribution identity on every ILP model and on Levo, loop roll-ups on
 * a handcrafted nested-loop program, folded-stack output, dee.run.v7
 * manifest round-trips (and v2-compat reads), the --profile-diff gate,
 * lint profile annotation, and the bench heartbeat.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/lint.hh"
#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "core/sim/models.hh"
#include "exec/interp.hh"
#include "isa/builder.hh"
#include "levo/levo.hh"
#include "obs/heartbeat.hh"
#include "obs/manifest.hh"
#include "obs/manifest_diff.hh"
#include "obs/profile/profile.hh"
#include "obs/profile/report.hh"
#include "obs/registry.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

using obs::BlockLoopNest;
using obs::GateReport;
using obs::Json;
using obs::kNoSite;
using obs::LoadedManifest;
using obs::parseManifest;
using obs::ProfileStore;
using obs::SlotClass;
using obs::SpeculationProfile;

// --- The attribution identity on every model ----------------------------

class ModelProfile : public ::testing::TestWithParam<ModelKind>
{
  protected:
    static const BenchmarkInstance &
    instance()
    {
        static const BenchmarkInstance inst =
            makeInstance(WorkloadId::Compress, 1);
        return inst;
    }
};

TEST_P(ModelProfile, SquashAttributionMatchesTheAccount)
{
    const ModelKind kind = GetParam();
    const auto &inst = instance();
    ProfileStore::global().clear();

    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.gatherProfile = true;
    options.profileWorkload = "compress";
    const SimResult r =
        runModel(kind, inst.trace, &inst.cfg, pred, 16, options);

    std::string why;
    EXPECT_TRUE(r.profile.attributionMatches(r.account, &why))
        << modelName(kind) << ": " << why;

    if (kind == ModelKind::Oracle) {
        // Oracle never speculates: no profile, no squash to attribute.
        EXPECT_EQ(r.profile.totalSquashedSlots(), 0u);
        return;
    }

    ASSERT_TRUE(r.account.valid()) << modelName(kind);
    EXPECT_EQ(r.profile.totalSquashedSlots(),
              r.account.slots(SlotClass::SquashedSpec))
        << modelName(kind);
    EXPECT_EQ(r.profile.totalMispredicts(), r.mispredicted)
        << modelName(kind);
    EXPECT_FALSE(r.profile.empty()) << modelName(kind);
    // Every conditional branch execution was recorded somewhere.
    EXPECT_EQ(r.profile.totalExecutions(), r.branches)
        << modelName(kind);

    // The run landed in the store under "<workload>.<model>".
    const std::string scope =
        std::string("compress.") + modelName(kind);
    EXPECT_NE(ProfileStore::global().find(scope), nullptr) << scope;
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, ModelProfile, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelKind> &info) {
        std::string name = modelName(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(ModelProfile, OptOutLeavesProfileEmpty)
{
    const auto inst = makeInstance(WorkloadId::Compress, 1);
    ProfileStore::global().clear();
    TwoBitPredictor pred(inst.trace.numStatic);
    const SimResult r =
        runModel(ModelKind::DEE_CD_MF, inst.trace, &inst.cfg, pred, 16);
    EXPECT_TRUE(r.profile.empty());
    EXPECT_TRUE(ProfileStore::global().empty());
}

// --- The identity on Levo -----------------------------------------------

Program
sumLoop(std::int64_t n)
{
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId body = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);
    pb.loadImm(2, n);
    pb.loadImm(3, 0);
    pb.switchTo(body);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.alu(Opcode::Add, 3, 3, 1);
    pb.branch(Opcode::BranchLt, 1, 2, body);
    pb.switchTo(done);
    pb.store(3, kZeroReg, 64);
    pb.halt();
    return pb.build();
}

TEST(LevoProfile, SquashAttributionMatchesTheAccount)
{
    const Program p = sumLoop(200);
    Cfg cfg(p);
    ProfileStore::global().clear();

    LevoConfig config;
    config.iqRows = 4; // forces refills alongside mispredicts
    config.gatherProfile = true;
    const LevoResult r = LevoMachine(p, cfg, config).run();

    ASSERT_TRUE(r.account.valid());
    std::string why;
    EXPECT_TRUE(r.profile.attributionMatches(r.account, &why)) << why;
    EXPECT_EQ(r.profile.totalSquashedSlots(),
              r.account.slots(SlotClass::SquashedSpec));
    ASSERT_GT(r.mispredicted, 0u);
    EXPECT_EQ(r.profile.totalMispredicts(), r.mispredicted);
    EXPECT_NE(ProfileStore::global().find("levo"), nullptr);
    ProfileStore::global().clear();
}

TEST(LevoProfile, CoveredMispredictsCountDeeSlotCycles)
{
    const Program p = sumLoop(100);
    Cfg cfg(p);
    ProfileStore::global().clear();
    LevoConfig config; // default 32x8, 3 DEE paths
    config.gatherProfile = true;
    const LevoResult r = LevoMachine(p, cfg, config).run();
    ASSERT_GT(r.deeCovered, 0u);
    std::uint64_t dee_cycles = 0;
    for (const auto &[pc, site] : r.profile.sites())
        dee_cycles += site.deeSlotCycles;
    EXPECT_GT(dee_cycles, 0u);
    ProfileStore::global().clear();
}

// --- Loop roll-ups on a handcrafted nested loop -------------------------

/** Two nested counted loops: inner branch at depth 2, outer at 1. */
Program
nestedLoops(std::int64_t outer_n, std::int64_t inner_n)
{
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId outer = pb.newBlock();
    const BlockId inner = pb.newBlock();
    const BlockId latch = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);       // outer counter
    pb.loadImm(4, outer_n);
    pb.loadImm(5, inner_n);
    pb.switchTo(outer);
    pb.loadImm(2, 0);       // inner counter
    pb.switchTo(inner);
    pb.alu(Opcode::Add, 3, 3, 2);
    pb.aluImm(Opcode::AddI, 2, 2, 1);
    pb.branch(Opcode::BranchLt, 2, 5, inner);
    pb.switchTo(latch);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.branch(Opcode::BranchLt, 1, 4, outer);
    pb.switchTo(done);
    pb.store(3, kZeroReg, 64);
    pb.halt();
    return pb.build();
}

TEST(LoopRollup, NestedLoopBranchesLandAtTheirDepths)
{
    const Program p = nestedLoops(8, 12);
    const Cfg cfg(p);
    const ExecResult exec = Interpreter(p).run();
    ASSERT_TRUE(exec.halted);
    ProfileStore::global().clear();

    TwoBitPredictor pred(exec.trace.numStatic);
    ModelRunOptions options;
    options.gatherProfile = true;
    options.profileWorkload = "nested";
    const SimResult r = runModel(ModelKind::DEE_CD_MF, exec.trace, &cfg,
                                 pred, 16, options);
    ProfileStore::global().clear();

    // Blocks (ProgramBuilder order): 0 init, 1 outer header, 2 inner
    // header/body, 3 latch, 4 done.
    const obs::BranchSiteProfile *inner_site = nullptr;
    const obs::BranchSiteProfile *outer_site = nullptr;
    for (const auto &[pc, site] : r.profile.sites()) {
        if (site.block == 2)
            inner_site = &site;
        if (site.block == 3)
            outer_site = &site;
    }
    ASSERT_NE(inner_site, nullptr);
    ASSERT_NE(outer_site, nullptr);

    // Inner branch: inside both loops, outermost header (B1) first.
    ASSERT_EQ(inner_site->loopHeaders.size(), 2u);
    EXPECT_EQ(inner_site->loopHeaders[0], 1);
    EXPECT_EQ(inner_site->loopHeaders[1], 2);
    // Outer latch branch: only inside the outer loop.
    ASSERT_EQ(outer_site->loopHeaders.size(), 1u);
    EXPECT_EQ(outer_site->loopHeaders[0], 1);

    // Roll-ups: the outer loop (B1) aggregates both sites; the inner
    // loop (B2) only the inner one; depth table has both depths.
    ASSERT_NE(r.profile.loops().count(1), 0u);
    ASSERT_NE(r.profile.loops().count(2), 0u);
    EXPECT_GE(r.profile.loops().at(1).sites, 2u);
    EXPECT_GE(r.profile.loops().at(2).sites, 1u);
    EXPECT_GE(r.profile.loops().at(1).executions,
              r.profile.loops().at(2).executions);
    ASSERT_NE(r.profile.depths().count(1), 0u);
    ASSERT_NE(r.profile.depths().count(2), 0u);
    EXPECT_EQ(r.profile.depths().at(2).depth, 2);
}

// --- Folded stacks (flamegraph input) -----------------------------------

TEST(FoldedStacks, GoldenOutput)
{
    SpeculationProfile prof;
    prof.recordExecution(3, 2, /*mispredicted=*/true, 0);
    prof.attributeSquash({{3u, 10u}, {kNoSite, 2u}});
    std::vector<BlockLoopNest> nests(3);
    nests[2].depth = 2;
    nests[2].headers = {1, 2};
    prof.rollUpLoops(nests);

    std::string out;
    prof.appendFoldedStacks("compress.DEE", &out);
    EXPECT_EQ(out,
              "compress.DEE;loop_B1;loop_B2;branch_0x3 10\n"
              "compress.DEE;unattributed 2\n");

    // Zero-squash sites contribute no frame.
    SpeculationProfile quiet;
    quiet.recordExecution(9, 0, false, 3);
    std::string none;
    quiet.appendFoldedStacks("s", &none);
    EXPECT_EQ(none, "");
}

// --- Manifest v3 round-trip and v2-compat -------------------------------

TEST(ManifestV3, ProfileSectionRoundTrips)
{
    ProfileStore::global().clear();
    SpeculationProfile prof;
    prof.recordExecution(5, 1, true, 2);
    prof.attributeSquash({{5u, 100u}});
    prof.setMeta("compress", "DEE");
    ProfileStore::global().merge("compress.DEE", prof);

    obs::Registry reg;
    obs::Manifest manifest("test_tool");
    const Json doc = manifest.toJson(reg);
    EXPECT_EQ(doc.find("schema")->asString(), "dee.run.v7");

    LoadedManifest back;
    std::string err;
    ASSERT_TRUE(parseManifest(doc.dump(2), "t.json", &back, &err))
        << err;
    EXPECT_EQ(back.schema, "dee.run.v7");
    double value = 0.0;
    ASSERT_TRUE(back.metric(
        "profile.compress.DEE.branches.0x5.squashed_slots", &value));
    EXPECT_DOUBLE_EQ(value, 100.0);
    ASSERT_TRUE(back.metric(
        "profile.compress.DEE.branches.0x5.mispredicts", &value));
    EXPECT_DOUBLE_EQ(value, 1.0);
    const Json *scope_doc =
        back.doc.find("profile")->find("compress.DEE");
    ASSERT_NE(scope_doc, nullptr);
    EXPECT_EQ(scope_doc->find("workload")->asString(), "compress");
    EXPECT_EQ(scope_doc->find("model")->asString(), "DEE");
    ProfileStore::global().clear();
}

TEST(ManifestV3, V2DocumentsStillLoadWithoutProfileMetrics)
{
    LoadedManifest v2;
    std::string err;
    ASSERT_TRUE(parseManifest(
        "{\"schema\":\"dee.run.v2\",\"tool\":\"t\","
        "\"results\":{\"speedup\":2.5}}",
        "v2.json", &v2, &err))
        << err;
    double value = 0.0;
    EXPECT_TRUE(v2.metric("results.speedup", &value));
    for (const auto &[path, v] : v2.metrics) {
        (void)v;
        EXPECT_NE(path.rfind("profile.", 0), 0u) << path;
    }
}

// --- The --profile-diff gate --------------------------------------------

std::string
profileManifestText(std::uint64_t hot_slots, bool with_new_site)
{
    Json b = Json::object();
    b["block"] = Json(2);
    b["squashed_slots"] = Json(hot_slots);
    Json branches = Json::object();
    branches["0x7"] = std::move(b);
    if (with_new_site) {
        Json nb = Json::object();
        nb["block"] = Json(3);
        nb["squashed_slots"] = Json(static_cast<std::uint64_t>(500));
        branches["0x9"] = std::move(nb);
    }
    Json scope = Json::object();
    scope["workload"] = Json("compress");
    scope["branches"] = std::move(branches);
    Json prof = Json::object();
    prof["compress.DEE"] = std::move(scope);
    Json doc = Json::object();
    doc["schema"] = Json("dee.run.v3");
    doc["tool"] = Json("unit_test");
    doc["profile"] = std::move(prof);
    return doc.dump(2);
}

LoadedManifest
loadText(const std::string &text, const std::string &label)
{
    LoadedManifest m;
    std::string err;
    EXPECT_TRUE(parseManifest(text, label, &m, &err)) << err;
    return m;
}

/** The --profile-diff gate: per-branch rows evaluated at 5%. */
GateReport
checkProfile(const LoadedManifest &base, const LoadedManifest &cand)
{
    return obs::evaluateGate(obs::profileRows(base, cand), 0.05);
}

TEST(ProfileDiff, GrowthBeyondBothThresholdsFailsNamingThePc)
{
    const LoadedManifest base =
        loadText(profileManifestText(100, false), "base");
    const LoadedManifest grown =
        loadText(profileManifestText(300, false), "cand");

    const GateReport report = checkProfile(base, grown);
    ASSERT_TRUE(report.anyRegressed());
    ASSERT_EQ(report.regressions(), 1u);
    EXPECT_EQ(report.rows[0].key,
              "profile.compress.DEE.branches.0x7.squashed_slots");
    EXPECT_TRUE(report.rows[0].baseline.has_value());
    EXPECT_DOUBLE_EQ(report.rows[0].relChange, 2.0);
    const std::string rendered = report.renderFailures();
    EXPECT_NE(rendered.find("FAIL"), std::string::npos);
    EXPECT_NE(rendered.find("0x7"), std::string::npos);
}

TEST(ProfileDiff, SmallAbsoluteGrowthAndImprovementsPass)
{
    const LoadedManifest base =
        loadText(profileManifestText(100, false), "base");
    // +10 slots is a 10% relative rise but under the 64-slot floor.
    const LoadedManifest wiggle =
        loadText(profileManifestText(110, false), "c1");
    EXPECT_FALSE(checkProfile(base, wiggle).anyRegressed());
    // Shrinking is an improvement, never a failure.
    const LoadedManifest better =
        loadText(profileManifestText(10, false), "c2");
    EXPECT_FALSE(checkProfile(base, better).anyRegressed());
}

TEST(ProfileDiff, NewHotSiteFails)
{
    const LoadedManifest base =
        loadText(profileManifestText(100, false), "base");
    const LoadedManifest with_new =
        loadText(profileManifestText(100, true), "cand");
    const GateReport report = checkProfile(base, with_new);
    ASSERT_TRUE(report.anyRegressed());
    ASSERT_EQ(report.regressions(), 1u);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_EQ(report.rows[1].key,
              "profile.compress.DEE.branches.0x9.squashed_slots");
    EXPECT_TRUE(report.rows[1].regressed);
    EXPECT_FALSE(report.rows[1].baseline.has_value());
    EXPECT_NE(report.renderFailures().find("0x9"),
              std::string::npos);
}

// --- HTML report --------------------------------------------------------

TEST(ProfileHtml, RendersSelfContainedPageFromManifests)
{
    Json doc;
    std::string err;
    ASSERT_TRUE(
        Json::parse(profileManifestText(100, true), &doc, &err))
        << err;
    const std::string html =
        obs::renderProfileHtml({doc}, {"run.json"});
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    EXPECT_NE(html.find("0x7"), std::string::npos);
    EXPECT_NE(html.find("compress.DEE"), std::string::npos);
    // Self-contained: no scripts, no external fetches.
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
}

// --- Lint profile annotation --------------------------------------------

TEST(LintAnnotate, HotFindingsLeadAndCarrySlotCounts)
{
    analysis::LintReport report;
    report.subject = "compress scale=1";
    analysis::Finding cold;
    cold.code = analysis::FindingCode::EmptyBlock;
    cold.block = 7;
    cold.message = "cold";
    analysis::Finding hot;
    hot.code = analysis::FindingCode::WriteToZeroReg;
    hot.block = 2;
    hot.message = "hot";
    report.findings = {cold, hot};

    Json doc;
    std::string err;
    ASSERT_TRUE(
        Json::parse(profileManifestText(100, false), &doc, &err))
        << err;
    const std::size_t annotated =
        analysis::annotateWithProfile(&report, *doc.find("profile"));
    EXPECT_EQ(annotated, 1u);
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].block, 2u);
    EXPECT_NE(report.findings[0].message.find("100 squashed slots"),
              std::string::npos);
    EXPECT_EQ(report.findings[1].message, "cold");
}

// --- Heartbeat ----------------------------------------------------------

TEST(Heartbeat, StatusLineReportsProgressAndTotals)
{
    obs::Heartbeat hb("bench", /*enabled=*/false);
    hb.setTotal(10);
    hb.tick();
    hb.tick(4);
    EXPECT_EQ(hb.done(), 5u);
    const std::string line = hb.statusLine();
    EXPECT_EQ(line.rfind("bench: 5/10", 0), 0u) << line;
    EXPECT_NE(line.find("/s"), std::string::npos) << line;
}

// --- Registry exposure --------------------------------------------------

TEST(ProfilePublish, RegistrySubtreeCarriesAggregates)
{
    SpeculationProfile prof;
    prof.recordExecution(4, 1, true, 1);
    prof.recordExecution(4, 1, false, 1);
    prof.recordResolveLatency(4, 3);
    prof.attributeSquash({{4u, 16u}});

    obs::Registry reg;
    prof.publish(reg, "compress.DEE");
    EXPECT_EQ(reg.counter("prof.compress.DEE.sites"), 1u);
    EXPECT_EQ(reg.counter("prof.compress.DEE.executions"), 2u);
    EXPECT_EQ(reg.counter("prof.compress.DEE.mispredicts"), 1u);
    EXPECT_EQ(reg.counter("prof.compress.DEE.squashed_slots"), 16u);
    obs::deriveScalars(reg);
    const double *p50 =
        reg.findScalar("prof.compress.DEE.resolve_latency_p50");
    ASSERT_NE(p50, nullptr);
    EXPECT_FALSE(std::isnan(*p50));
}

} // namespace
} // namespace dee
