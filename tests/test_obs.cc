/**
 * @file
 * Unit tests for the observability layer: stats registry naming rules,
 * tracer ring-buffer semantics, JSON emission round-tripped through the
 * built-in parser, scoped timers and run manifests.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "obs/obs.hh"

namespace
{

using dee::obs::Json;
using dee::obs::Manifest;
using dee::obs::Registry;
using dee::obs::ScopedTimer;
using dee::obs::Tracer;

TEST(Registry, CounterScalarStatHistogram)
{
    Registry reg;
    reg.counter("sim.window.runs") += 3;
    reg.counter("sim.window.runs") += 2;
    EXPECT_EQ(reg.counter("sim.window.runs"), 5u);

    reg.scalar("sim.window.speedup_last") = 31.9;
    EXPECT_DOUBLE_EQ(reg.scalar("sim.window.speedup_last"), 31.9);

    reg.stat("sim.window.speedup").add(2.0);
    reg.stat("sim.window.speedup").add(4.0);
    EXPECT_EQ(reg.stat("sim.window.speedup").count(), 2u);
    EXPECT_DOUBLE_EQ(reg.stat("sim.window.speedup").mean(), 3.0);

    auto &hist = reg.histogram("sim.window.occupancy", 0.0, 8.0, 4);
    hist.add(1.0);
    hist.add(5.0);
    // Same object on re-access; geometry arguments ignored.
    EXPECT_EQ(&reg.histogram("sim.window.occupancy", 0.0, 1.0, 1),
              &hist);
    EXPECT_EQ(hist.total(), 2u);

    EXPECT_TRUE(reg.contains("sim.window.runs"));
    EXPECT_FALSE(reg.contains("sim.window"));
    EXPECT_EQ(reg.size(), 4u);
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(RegistryDeathTest, KindConflictIsFatal)
{
    Registry reg;
    reg.counter("levo.copybacks");
    EXPECT_EXIT(reg.scalar("levo.copybacks"),
                ::testing::ExitedWithCode(1), "registered as a counter");
}

TEST(RegistryDeathTest, PrefixOfLeafIsFatal)
{
    Registry reg;
    reg.counter("bpred.2bit.mispredicts");
    // A leaf cannot also be an interior node, in either direction.
    EXPECT_EXIT(reg.counter("bpred.2bit"),
                ::testing::ExitedWithCode(1), "prefix");
    EXPECT_EXIT(reg.counter("bpred.2bit.mispredicts.fast"),
                ::testing::ExitedWithCode(1), "descends through");
}

TEST(RegistryDeathTest, MalformedPathIsFatal)
{
    Registry reg;
    EXPECT_EXIT(reg.counter(""), ::testing::ExitedWithCode(1), "path");
    EXPECT_EXIT(reg.counter("a..b"), ::testing::ExitedWithCode(1),
                "path");
    EXPECT_EXIT(reg.counter("a.b!"), ::testing::ExitedWithCode(1),
                "path");
}

TEST(Registry, TextAndJsonDumps)
{
    Registry reg;
    reg.counter("sim.window.mispredicts") = 7;
    reg.scalar("levo.ipc_last") = 6.5;
    reg.stat("sim.window.speedup").add(12.0);

    const std::string text = reg.renderText();
    EXPECT_NE(text.find("sim.window.mispredicts"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);

    const Json doc = reg.toJson();
    const Json *sim = doc.find("sim");
    ASSERT_NE(sim, nullptr);
    const Json *window = sim->find("window");
    ASSERT_NE(window, nullptr);
    const Json *mp = window->find("mispredicts");
    ASSERT_NE(mp, nullptr);
    EXPECT_EQ(mp->asInt(), 7);
    const Json *speedup = window->find("speedup");
    ASSERT_NE(speedup, nullptr);
    ASSERT_TRUE(speedup->isObject());
    EXPECT_EQ(speedup->find("count")->asInt(), 1);
    EXPECT_DOUBLE_EQ(speedup->find("mean")->asDouble(), 12.0);
}

TEST(Tracer, RingWraparoundKeepsNewestEvents)
{
    Tracer tracer(4);
    tracer.enable();
    for (int i = 0; i < 6; ++i)
        tracer.record("tick", 'i', i);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.recorded(), 6u);
    EXPECT_EQ(tracer.dropped(), 2u);
    // Oldest-first iteration yields timestamps 2..5.
    for (std::size_t i = 0; i < tracer.size(); ++i)
        EXPECT_EQ(tracer.event(i).ts, static_cast<std::int64_t>(i + 2));

    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Tracer, MacroSkipsArgumentEvaluationWhenDisabled)
{
    Tracer tracer(4);
    int evaluations = 0;
    auto ts = [&]() -> std::int64_t { return ++evaluations; };

    dee_trace_event(tracer, "off", 'i', ts());
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(tracer.size(), 0u);

    tracer.enable();
    dee_trace_event(tracer, "on", 'i', ts());
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, JsonLinesAreWellFormedTraceEvents)
{
    Tracer tracer(8);
    tracer.enable();
    tracer.record("sim.root_advance", 'i', 10, "path", 3, "mispredict",
                  1);
    tracer.record("sim.issue_occupancy", 'C', 11, "busy", 42);
    tracer.record("sim.window.run", 'X', 0, nullptr, 0, nullptr, 0, 2,
                  100);

    std::ostringstream os;
    tracer.writeJsonLines(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        Json event;
        std::string err;
        ASSERT_TRUE(Json::parse(line, &event, &err)) << err;
        ASSERT_TRUE(event.isObject());
        EXPECT_NE(event.find("name"), nullptr);
        EXPECT_NE(event.find("ph"), nullptr);
        EXPECT_NE(event.find("ts"), nullptr);
        EXPECT_NE(event.find("pid"), nullptr);
        EXPECT_NE(event.find("tid"), nullptr);
        ++lines;
    }
    EXPECT_EQ(lines, 3u);

    std::ostringstream os2;
    tracer.writeJsonLines(os2);
    const std::string text = os2.str();
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(text.find("\"dur\":100"), std::string::npos);
    EXPECT_NE(text.find("\"mispredict\":1"), std::string::npos);
}

TEST(Json, RoundTripThroughParser)
{
    Json doc = Json::object();
    doc["name"] = Json("quote \" backslash \\ newline \n tab \t");
    doc["count"] = Json(std::int64_t{-42});
    doc["ratio"] = Json(31.9);
    doc["flag"] = Json(true);
    doc["nothing"] = Json();
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    Json inner = Json::object();
    inner["deep"] = Json(3.5);
    arr.push(std::move(inner));
    doc["items"] = std::move(arr);

    for (int indent : {-1, 2}) {
        Json back;
        std::string err;
        ASSERT_TRUE(Json::parse(doc.dump(indent), &back, &err)) << err;
        EXPECT_EQ(back.find("name")->asString(),
                  "quote \" backslash \\ newline \n tab \t");
        EXPECT_EQ(back.find("count")->asInt(), -42);
        EXPECT_DOUBLE_EQ(back.find("ratio")->asDouble(), 31.9);
        EXPECT_TRUE(back.find("flag")->asBool());
        EXPECT_EQ(back.find("nothing")->kind(), Json::Kind::Null);
        const Json &items = *back.find("items");
        ASSERT_EQ(items.size(), 3u);
        EXPECT_EQ(items.items()[0].asInt(), 1);
        EXPECT_EQ(items.items()[1].asString(), "two");
        EXPECT_DOUBLE_EQ(items.items()[2].find("deep")->asDouble(),
                         3.5);
    }
}

TEST(Json, ParserRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
          "\"unterminated", "{\"a\":1}trailing", "nan"}) {
        Json out;
        std::string err;
        EXPECT_FALSE(Json::parse(bad, &out, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Json, UnicodeEscapes)
{
    Json out;
    std::string err;
    ASSERT_TRUE(Json::parse("\"a\\u00e9b\\u20acc\"", &out, &err))
        << err;
    EXPECT_EQ(out.asString(), "a\xc3\xa9"
                              "b\xe2\x82\xac"
                              "c");
}

TEST(Json, EscapeEdgeCases)
{
    // Every single-character escape of RFC 8259, plus \u0041 ('A').
    Json out;
    std::string err;
    ASSERT_TRUE(Json::parse(
        "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\"", &out, &err))
        << err;
    EXPECT_EQ(out.asString(), "\"\\/\b\f\n\r\t"
                              "A");

    // \u0000 must survive as an embedded NUL, not truncate the string.
    ASSERT_TRUE(Json::parse("\"a\\u0000b\"", &out, &err)) << err;
    EXPECT_EQ(out.asString(), std::string("a\0b", 3));

    // Malformed escapes are rejected, not silently passed through.
    for (const char *bad : {"\"\\u12\"", "\"\\u12zq\"", "\"\\q\""}) {
        std::string why;
        EXPECT_FALSE(Json::parse(bad, &out, &why)) << bad;
        EXPECT_FALSE(why.empty()) << bad;
    }
}

TEST(Json, DeepNestingIsRejectedNotOverflowed)
{
    // Just inside the parser's depth cap: fine.
    const int ok_depth = 200;
    std::string ok(static_cast<std::size_t>(ok_depth), '[');
    ok += std::string(static_cast<std::size_t>(ok_depth), ']');
    Json out;
    std::string err;
    EXPECT_TRUE(Json::parse(ok, &out, &err)) << err;

    // Far past the cap: a clean parse error, not a stack overflow.
    const int bad_depth = 100000;
    std::string bad(static_cast<std::size_t>(bad_depth), '[');
    bad += std::string(static_cast<std::size_t>(bad_depth), ']');
    EXPECT_FALSE(Json::parse(bad, &out, &err));
    EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(Json, DuplicateObjectKeysLastWins)
{
    Json out;
    std::string err;
    ASSERT_TRUE(Json::parse("{\"a\":1,\"b\":2,\"a\":3}", &out, &err))
        << err;
    ASSERT_TRUE(out.isObject());
    // One member per key, holding the last value — the behaviour
    // registry dumps rely on when a path is re-emitted.
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(out.find("a")->asInt(), 3);
    EXPECT_EQ(out.find("b")->asInt(), 2);
}

TEST(ScopedTimer, RecordsOneSamplePerScope)
{
    Registry reg;
    {
        ScopedTimer timer("sim.window.run_ms", reg);
    }
    {
        ScopedTimer timer("sim.window.run_ms", reg);
    }
    const dee::RunningStat &stat = reg.stat("sim.window.run_ms");
    EXPECT_EQ(stat.count(), 2u);
    EXPECT_GE(stat.min(), 0.0);
}

TEST(Manifest, DocumentShapeAndRoundTrip)
{
    Registry reg;
    reg.counter("sim.window.runs") = 1;

    Manifest manifest("test_tool");
    manifest.setConfig("scale", 4);
    manifest.results()["speedup"] = Json(31.9);

    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(manifest.toJson(reg).dump(2), &back, &err))
        << err;
    EXPECT_EQ(back.find("schema")->asString(), "dee.run.v7");
    EXPECT_EQ(back.find("tool")->asString(), "test_tool");
    EXPECT_EQ(back.find("config")->find("scale")->asInt(), 4);
    EXPECT_DOUBLE_EQ(back.find("results")->find("speedup")->asDouble(),
                     31.9);
    EXPECT_EQ(back.find("stats")
                  ->find("sim")
                  ->find("window")
                  ->find("runs")
                  ->asInt(),
              1);
    ASSERT_NE(back.find("wall_clock_ms"), nullptr);
    EXPECT_TRUE(back.find("wall_clock_ms")->isNumber());

    // v2 sections: accounting mirrors the registry's acct subtree
    // (empty here) and trace reports tracer health.
    ASSERT_NE(back.find("accounting"), nullptr);
    EXPECT_TRUE(back.find("accounting")->isObject());
    const Json *trace = back.find("trace");
    ASSERT_NE(trace, nullptr);
    ASSERT_NE(trace->find("recorded"), nullptr);
    ASSERT_NE(trace->find("dropped"), nullptr);
    ASSERT_NE(trace->find("buffered"), nullptr);

    // v3 section: the speculation profile, {} when nothing profiled.
    const Json *profile = back.find("profile");
    ASSERT_NE(profile, nullptr);
    EXPECT_TRUE(profile->isObject());

    // v5 section: telemetry summary, {"enabled": false} when the
    // sampler never ran (as in this process).
    const Json *telemetry = back.find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    ASSERT_NE(telemetry->find("enabled"), nullptr);
}

TEST(Manifest, AccountingSectionMirrorsRegistrySubtree)
{
    Registry reg;
    reg.counter("acct.window.useful") = 40;
    reg.counter("acct.window.idle") = 8;
    reg.scalar("acct.window.waste_fraction") = 0.25;

    Manifest manifest("test_tool");
    const Json doc = manifest.toJson(reg);
    const Json *acct = doc.find("accounting");
    ASSERT_NE(acct, nullptr);
    const Json *window = acct->find("window");
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->find("useful")->asInt(), 40);
    EXPECT_EQ(window->find("idle")->asInt(), 8);
    EXPECT_DOUBLE_EQ(window->find("waste_fraction")->asDouble(), 0.25);
}

// --- Manifest diffing (the dee_report core) -----------------------------

using dee::obs::evaluateGate;
using dee::obs::flattenNumeric;
using dee::obs::GateReport;
using dee::obs::GateRow;
using dee::obs::globMatch;
using dee::obs::LoadedManifest;
using dee::obs::parseManifest;
using dee::obs::parseWatchList;
using dee::obs::renderManifestDiff;
using dee::obs::WatchSpec;

/** A tiny v2 manifest with one tweakable result/accounting metric. */
std::string
manifestText(double speedup, double waste, bool with_extra = true)
{
    Json doc = Json::object();
    doc["schema"] = Json("dee.run.v2");
    doc["tool"] = Json("unit_test");
    doc["config"] = Json::object();
    doc["results"] = Json::object();
    doc["results"]["speedup"] = Json(speedup);
    if (with_extra)
        doc["results"]["extra"] = Json(7);
    doc["accounting"] = Json::object();
    doc["accounting"]["window"] = Json::object();
    doc["accounting"]["window"]["waste_fraction"] = Json(waste);
    doc["stats"] = Json::object();
    doc["wall_clock_ms"] = Json(1.5);
    return doc.dump(2);
}

LoadedManifest
loaded(const std::string &text, const std::string &label)
{
    LoadedManifest m;
    std::string err;
    EXPECT_TRUE(parseManifest(text, label, &m, &err)) << err;
    return m;
}

/** The --check gate: watch-list rows evaluated at @p threshold. */
GateReport
checkWatches(const LoadedManifest &base, const LoadedManifest &cand,
             const std::vector<WatchSpec> &watches, double threshold)
{
    std::vector<GateRow> rows;
    std::string err;
    EXPECT_TRUE(dee::obs::watchRows(base, cand, watches, &rows, &err))
        << err;
    return evaluateGate(std::move(rows), threshold);
}

TEST(ManifestDiff, GlobMatch)
{
    EXPECT_TRUE(globMatch("a.b.c", "a.b.c"));
    EXPECT_FALSE(globMatch("a.b.c", "a.b.d"));
    EXPECT_TRUE(globMatch("*", "anything.at.all"));
    EXPECT_TRUE(globMatch("acct.*.waste_fraction",
                          "acct.window.waste_fraction"));
    EXPECT_FALSE(globMatch("acct.*.waste_fraction",
                           "acct.window.useful"));
    EXPECT_TRUE(globMatch("*speedup*", "results.DEE-CD-MF.speedup"));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("**", "x"));
}

TEST(ManifestDiff, WatchSpecParsing)
{
    std::vector<WatchSpec> watches;
    std::string err;
    ASSERT_TRUE(parseWatchList("results.*,results.speedup:+,,"
                               "accounting.*:-",
                               &watches, &err))
        << err;
    ASSERT_EQ(watches.size(), 3u);
    EXPECT_EQ(watches[0].pattern, "results.*");
    EXPECT_TRUE(watches[0].higherIsBetter);
    EXPECT_EQ(watches[1].pattern, "results.speedup");
    EXPECT_TRUE(watches[1].higherIsBetter);
    EXPECT_EQ(watches[2].pattern, "accounting.*");
    EXPECT_FALSE(watches[2].higherIsBetter);

    // An empty pattern is an error value naming the spec, not an abort.
    EXPECT_FALSE(parseWatchList("results.*,:+", &watches, &err));
    EXPECT_NE(err.find("':+'"), std::string::npos) << err;
}

TEST(ManifestDiff, WatchMatchingNothingIsAnError)
{
    const LoadedManifest base = loaded(manifestText(30.0, 0.2), "base");
    std::vector<GateRow> rows;
    std::string err;
    EXPECT_FALSE(dee::obs::watchRows(
        base, base, {{"results.speedup", true}, {"results.*ipc*", true}},
        &rows, &err));
    EXPECT_NE(err.find("results.*ipc*"), std::string::npos) << err;
}

TEST(ManifestDiff, FlattenNumericWalksObjectsAndArrays)
{
    Json doc = Json::object();
    doc["a"] = Json(1);
    doc["b"] = Json::object();
    doc["b"]["c"] = Json(2.5);
    doc["b"]["skip"] = Json("string");
    Json arr = Json::array();
    arr.push(Json(10));
    arr.push(Json(20));
    doc["d"] = std::move(arr);

    std::vector<std::pair<std::string, double>> out;
    flattenNumeric(doc, "", &out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].first, "a");
    EXPECT_DOUBLE_EQ(out[1].second, 2.5);
    EXPECT_EQ(out[1].first, "b.c");
    EXPECT_EQ(out[2].first, "d.0");
    EXPECT_EQ(out[3].first, "d.1");
}

TEST(ManifestDiff, ParseAcceptsV1AndV2RejectsOthers)
{
    const LoadedManifest v2 = loaded(manifestText(30.0, 0.2), "a.json");
    EXPECT_EQ(v2.schema, "dee.run.v2");
    EXPECT_EQ(v2.tool, "unit_test");
    double value = 0.0;
    ASSERT_TRUE(v2.metric("results.speedup", &value));
    EXPECT_DOUBLE_EQ(value, 30.0);
    ASSERT_TRUE(v2.metric("accounting.window.waste_fraction", &value));
    EXPECT_DOUBLE_EQ(value, 0.2);
    ASSERT_TRUE(v2.metric("wall_clock_ms", &value));

    // v1: no accounting/trace sections, still loadable.
    LoadedManifest v1;
    std::string err;
    ASSERT_TRUE(parseManifest("{\"schema\":\"dee.run.v1\",\"tool\":"
                              "\"t\",\"results\":{\"x\":1}}",
                              "v1.json", &v1, &err))
        << err;
    ASSERT_TRUE(v1.metric("results.x", &value));

    LoadedManifest bad;
    EXPECT_FALSE(parseManifest("{\"schema\":\"dee.run.v99\"}", "bad",
                               &bad, &err));
    EXPECT_NE(err.find("schema"), std::string::npos);
    EXPECT_FALSE(parseManifest("not json", "bad", &bad, &err));
    EXPECT_FALSE(parseManifest("[1,2]", "bad", &bad, &err));
}

TEST(ManifestDiff, RegressionGateTripsInTheWatchedDirectionOnly)
{
    const LoadedManifest base = loaded(manifestText(30.0, 0.20), "base");
    const LoadedManifest slower = loaded(manifestText(27.0, 0.20), "c1");
    const LoadedManifest faster = loaded(manifestText(33.0, 0.20), "c2");
    const LoadedManifest wasteful =
        loaded(manifestText(30.0, 0.30), "c3");

    const std::vector<WatchSpec> watches{
        WatchSpec{"results.speedup", true},
        WatchSpec{"accounting.*.waste_fraction", false}};

    // 10% drop in speedup > 5% threshold: regression.
    EXPECT_TRUE(
        checkWatches(base, slower, watches, 0.05).anyRegressed());
    // Improvement in the good direction never trips.
    EXPECT_FALSE(
        checkWatches(base, faster, watches, 0.05).anyRegressed());
    // waste_fraction rose 50%: lower-is-better watch trips.
    EXPECT_TRUE(
        checkWatches(base, wasteful, watches, 0.05).anyRegressed());
    // Inside the threshold: no trip.
    const LoadedManifest close = loaded(manifestText(29.5, 0.20), "c4");
    EXPECT_FALSE(
        checkWatches(base, close, watches, 0.05).anyRegressed());

    const GateReport report =
        checkWatches(base, slower, watches, 0.05);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_EQ(report.rows[0].key, "results.speedup");
    EXPECT_TRUE(report.rows[0].regressed);
    EXPECT_NEAR(report.rows[0].relChange, -0.1, 1e-9);
    EXPECT_FALSE(report.rows[1].regressed);
}

TEST(ManifestDiff, MissingWatchedMetricCountsAsRegression)
{
    const LoadedManifest base = loaded(manifestText(30.0, 0.2), "base");
    const LoadedManifest gone =
        loaded(manifestText(30.0, 0.2, /*with_extra=*/false), "cand");
    const std::vector<WatchSpec> watches{
        WatchSpec{"results.*", true}};
    const GateReport report =
        checkWatches(base, gone, watches, 0.05);
    EXPECT_TRUE(report.anyRegressed());
    bool saw_missing = false;
    for (const GateRow &row : report.rows)
        saw_missing |= !row.candidate;
    EXPECT_TRUE(saw_missing);
}

TEST(ManifestDiff, FailureLinesNameTheMetricAndBothValues)
{
    const LoadedManifest base = loaded(manifestText(30.0, 0.20), "base");
    const LoadedManifest slower = loaded(manifestText(27.0, 0.20), "c1");
    const std::vector<WatchSpec> watches{
        WatchSpec{"results.speedup", true},
        WatchSpec{"accounting.*.waste_fraction", false}};

    const GateReport report =
        checkWatches(base, slower, watches, 0.05);
    ASSERT_TRUE(report.anyRegressed());
    const std::string failures = report.renderFailures();
    // The offending metric path and both values, on one FAIL line.
    EXPECT_NE(failures.find("FAIL results.speedup"), std::string::npos);
    EXPECT_NE(failures.find("baseline 30"), std::string::npos);
    EXPECT_NE(failures.find("candidate 27"), std::string::npos);
    EXPECT_NE(failures.find("-10.00%"), std::string::npos);
    // Non-regressed watches contribute no lines.
    EXPECT_EQ(failures.find("waste_fraction"), std::string::npos);

    // A clean gate renders nothing.
    const LoadedManifest same = loaded(manifestText(30.0, 0.20), "c2");
    EXPECT_TRUE(checkWatches(base, same, watches, 0.05)
                    .renderFailures()
                    .empty());
}

TEST(ManifestDiff, EveryRegressedMetricGetsItsOwnFailureLine)
{
    // Two watched metrics regress at once (speedup down, waste up):
    // both FAIL lines must render — the gate never stops at the first
    // failure, so a CI log shows the full damage in one run.
    const LoadedManifest base = loaded(manifestText(30.0, 0.20), "base");
    const LoadedManifest worse = loaded(manifestText(20.0, 0.40), "c1");
    const std::vector<WatchSpec> watches{
        WatchSpec{"results.speedup", true},
        WatchSpec{"accounting.*.waste_fraction", false}};

    const std::string failures =
        checkWatches(base, worse, watches, 0.05).renderFailures();
    EXPECT_NE(failures.find("FAIL results.speedup"), std::string::npos)
        << failures;
    EXPECT_NE(failures.find("FAIL accounting.window.waste_fraction"),
              std::string::npos)
        << failures;
    std::size_t fails = 0, pos = 0;
    while ((pos = failures.find("FAIL ", pos)) != std::string::npos) {
        ++fails;
        pos += 5;
    }
    EXPECT_EQ(fails, 2u) << failures;
}

TEST(ManifestDiff, FailureLinesReportMissingMetrics)
{
    const LoadedManifest base = loaded(manifestText(30.0, 0.2), "base");
    const LoadedManifest gone =
        loaded(manifestText(30.0, 0.2, /*with_extra=*/false), "cand");
    const std::vector<WatchSpec> watches{
        WatchSpec{"results.*", true}};
    const std::string failures =
        checkWatches(base, gone, watches, 0.05).renderFailures();
    EXPECT_NE(failures.find("FAIL results.extra"), std::string::npos);
    EXPECT_NE(failures.find("missing from candidate"),
              std::string::npos);
    EXPECT_NE(failures.find("baseline 7"), std::string::npos);
}

TEST(Gate, VerdictBoundaries)
{
    // One table for the one rule: exactly at tolerance passes; missing
    // always fails; a new row fails only past its floor; the two
    // directions mirror each other; a zero baseline compares the
    // absolute move. Values are binary-exact so "at" means equal.
    struct Case
    {
        const char *what;
        std::optional<double> base, cand;
        bool higherIsBetter;
        double noise, floor, threshold;
        bool regressed;
    };
    const std::optional<double> none;
    const Case cases[] = {
        {"drop at threshold", 8.0, 6.0, true, 0.0, 0.0, 0.25, false},
        {"drop past threshold", 8.0, 5.5, true, 0.0, 0.0, 0.25, true},
        {"rise at threshold", 8.0, 10.0, false, 0.0, 0.0, 0.25, false},
        {"rise past threshold", 8.0, 10.5, false, 0.0, 0.0, 0.25, true},
        {"drop at threshold+noise", 8.0, 5.0, true, 0.125, 0.0, 0.25,
         false},
        {"drop past threshold+noise", 8.0, 4.5, true, 0.125, 0.0, 0.25,
         true},
        {"improvement up", 8.0, 100.0, true, 0.0, 0.0, 0.0, false},
        {"improvement down", 8.0, 0.0, false, 0.0, 0.0, 0.0, false},
        {"missing", 8.0, none, true, 0.0, 0.0, 0.25, true},
        {"missing, lower is better", 8.0, none, false, 0.0, 64.0, 1.0,
         true},
        {"new at floor", none, 64.0, false, 0.0, 64.0, 0.05, false},
        {"new past floor", none, 65.0, false, 0.0, 64.0, 0.05, true},
        {"new share at threshold", none, 0.25, false, 0.0, 0.0, 0.25,
         false},
        {"new share past threshold", none, 0.5, false, 0.0, 0.0, 0.25,
         true},
        {"zero baseline at threshold", 0.0, -0.25, true, 0.0, 0.0, 0.25,
         false},
        {"zero baseline past threshold", 0.0, -0.5, true, 0.0, 0.0, 0.25,
         true},
        {"relative past, absolute under floor", 1.0, 50.0, false, 0.0,
         64.0, 0.05, false},
        {"negative baseline uses |baseline|", -4.0, -5.0, true, 0.0, 0.0,
         0.25, false},
        {"negative baseline past", -4.0, -5.5, true, 0.0, 0.0, 0.25,
         true},
    };
    for (const Case &c : cases) {
        GateRow row;
        row.key = c.what;
        row.baseline = c.base;
        row.candidate = c.cand;
        row.higherIsBetter = c.higherIsBetter;
        row.noise = c.noise;
        row.absFloor = c.floor;
        const GateReport report = evaluateGate({row}, c.threshold);
        EXPECT_EQ(report.rows[0].regressed, c.regressed) << c.what;
        EXPECT_EQ(report.renderFailures().find(std::string("FAIL ") +
                                               c.what + ":") == 0,
                  c.regressed)
            << c.what;
    }
}

TEST(ManifestDiff, SideBySideRenderIncludesDeltaForPairs)
{
    const std::vector<LoadedManifest> pair{
        loaded(manifestText(30.0, 0.2), "runs/base.json"),
        loaded(manifestText(33.0, 0.2), "runs/cand.json")};
    const std::string diff =
        renderManifestDiff(pair, "results.*");
    EXPECT_NE(diff.find("results.speedup"), std::string::npos);
    EXPECT_NE(diff.find("base"), std::string::npos);
    EXPECT_NE(diff.find("cand"), std::string::npos);
    EXPECT_NE(diff.find("10.00%"), std::string::npos);
    // Filter excludes accounting rows.
    EXPECT_EQ(diff.find("waste_fraction"), std::string::npos);
}

TEST(Session, SurfacesTracerDropCountsInRegistry)
{
    Tracer &tracer = Tracer::global();
    tracer.setCapacity(4);
    tracer.enable();
    for (int i = 0; i < 9; ++i)
        tracer.record("tick", 'i', i);
    tracer.disable();

    {
        dee::obs::Session session("test_tool", dee::obs::SessionOptions{});
    }
    Registry &reg = Registry::global();
    ASSERT_TRUE(reg.contains("trace.recorded"));
    ASSERT_TRUE(reg.contains("trace.dropped"));
    EXPECT_EQ(reg.counter("trace.recorded"), 9u);
    // Ring of 4 wrapped: 5 events silently discarded — the bug this
    // surfacing exists to expose.
    EXPECT_EQ(reg.counter("trace.dropped"), 5u);
}

} // namespace
