/**
 * @file
 * PreparedTrace: the per-trace paths, decode, join index and predictor
 * outcomes that every simulation of a trace shares.
 *
 * A cold run (the first simulation of a Trace object, which builds the
 * preparation) and a warm run (a later one, which reads it) must agree
 * bit for bit on every model, latency model, load-latency override, PE
 * limit and engine, and both must match a predictor pass run afresh.
 * The rest pins the cache's keys and lifetime: copies and Cfgs never
 * share entries by accident, and racing first uses build once.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "core/sim/prepared_trace.hh"
#include "mem/cache.hh"
#include "obs/isolate.hh"
#include "obs/obs.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

constexpr std::uint64_t kMaxInstrs = 6'000;

/**
 * A 2-bit predictor the simulator cannot recognise as one: same
 * predictions through the virtual interface, so its runs take the
 * uncached predictor pass — the ground truth for the cached outcomes.
 */
class OpaqueTwoBit : public BranchPredictor
{
  public:
    explicit OpaqueTwoBit(std::uint32_t num_static) : inner_(num_static)
    {
    }

    bool predict(const BranchQuery &q) override
    {
        return inner_.predict(q);
    }
    void update(const BranchQuery &q, bool taken) override
    {
        inner_.update(q, taken);
    }
    void reset() override { inner_.reset(); }
    std::unique_ptr<BranchPredictor> clone() const override
    {
        return std::make_unique<OpaqueTwoBit>(inner_.numStatic());
    }
    std::string name() const override { return inner_.name(); }

    const std::vector<std::uint8_t> &counters() const
    {
        return inner_.counters();
    }

  private:
    TwoBitPredictor inner_;
};

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &ctx)
{
    EXPECT_EQ(a.instructions, b.instructions) << ctx;
    EXPECT_EQ(a.cycles, b.cycles) << ctx;
    EXPECT_EQ(a.speedup, b.speedup) << ctx;
    EXPECT_EQ(a.branches, b.branches) << ctx;
    EXPECT_EQ(a.mispredicted, b.mispredicted) << ctx;
    EXPECT_EQ(a.predictionAccuracy, b.predictionAccuracy) << ctx;
    EXPECT_EQ(a.resolveDepthCounts, b.resolveDepthCounts) << ctx;
    EXPECT_EQ(a.sidePathFetches, b.sidePathFetches) << ctx;
    EXPECT_EQ(a.peakIssue, b.peakIssue) << ctx;
    ASSERT_EQ(a.account.valid(), b.account.valid()) << ctx;
    if (a.account.valid()) {
        EXPECT_EQ(a.account.cycles(), b.account.cycles()) << ctx;
        for (std::size_t i = 0; i < obs::kNumSlotClasses; ++i) {
            const auto cls = static_cast<obs::SlotClass>(i);
            EXPECT_EQ(a.account.slots(cls), b.account.slots(cls))
                << ctx << " " << obs::slotClassName(cls);
        }
        for (std::size_t i = 0; i < obs::kNumConfidenceBuckets; ++i) {
            EXPECT_EQ(a.account.squashedInBucket(i),
                      b.account.squashedInBucket(i))
                << ctx << " bucket " << i;
        }
    }
    EXPECT_EQ(a.profile.toJson().dump(), b.profile.toJson().dump())
        << ctx;
}

/** Registry JSON minus the host-timing subtrees (perf.*, run_ms). */
obs::Json
deterministic(const obs::Json &doc)
{
    static const std::set<std::string> kDrop = {"perf", "run_ms", "hot"};
    if (!doc.isObject())
        return doc;
    obs::Json out = obs::Json::object();
    for (const auto &[key, value] : doc.members())
        if (kDrop.count(key) == 0)
            out[key] = deterministic(value);
    return out;
}

/** What one isolated runModel call produced. */
struct CellRun
{
    SimResult result;
    std::vector<std::uint8_t> counters; ///< predictor end state
    std::string registry;               ///< deterministic registry
    std::uint64_t builds = 0;           ///< perf.prepare.builds
};

template <typename Pred>
CellRun
isolatedRun(ModelKind kind, const Trace &trace, const Cfg &cfg, int e_t,
            const ModelRunOptions &options)
{
    obs::CellSink sink;
    CellRun run;
    {
        const obs::IsolationScope scope(sink);
        Pred pred(trace.numStatic);
        run.result = runModel(kind, trace, &cfg, pred, e_t, options);
        if constexpr (requires { pred.counters(); })
            run.counters = pred.counters();
    }
    run.registry = deterministic(sink.registry.toJson()).dump();
    if (const std::uint64_t *b =
            sink.registry.findCounter("perf.prepare.builds"))
        run.builds = *b;
    return run;
}

void
expectSameRun(const CellRun &a, const CellRun &b, const std::string &ctx)
{
    expectSameResult(a.result, b.result, ctx);
    EXPECT_EQ(a.counters, b.counters) << ctx;
    EXPECT_EQ(a.registry, b.registry) << ctx;
}

/** Counter table of a power-on 2-bit predictor after one plain pass
 *  over the trace (what every simulation leaves behind). */
std::vector<std::uint8_t>
countersAfterPass(const Trace &trace)
{
    TwoBitPredictor pred(trace.numStatic);
    (void)measureAccuracy(trace, pred);
    return pred.counters();
}

/**
 * Each mispredict lands in the confidence bucket its site held just
 * before the instance resolved: recomputed here from one plain
 * predictor pass over the records.
 */
void
expectOnlineConfidenceBuckets(const Trace &trace,
                              const obs::SpeculationProfile &profile,
                              const std::string &ctx)
{
    TwoBitPredictor pred(trace.numStatic);
    ConfidenceEstimator online(trace.numStatic);
    std::map<StaticId, obs::BranchSiteProfile> want;
    for (const TraceRecord &rec : trace.records) {
        if (!rec.isBranch)
            continue;
        const bool right =
            pred.predictThenUpdate(rec.sid, rec.taken) == rec.taken;
        obs::BranchSiteProfile &site = want[rec.sid];
        ++site.executions;
        if (!right) {
            ++site.mispredicts;
            ++site.mispredictsByConf[obs::confidenceBucket(
                online.estimate(rec.sid))];
        }
        online.record(rec.sid, right);
    }
    ASSERT_EQ(profile.sites().size(), want.size()) << ctx;
    for (const auto &[sid, got] : profile.sites()) {
        const obs::BranchSiteProfile &w = want[sid];
        EXPECT_EQ(got.executions, w.executions) << ctx << " sid " << sid;
        EXPECT_EQ(got.mispredicts, w.mispredicts) << ctx << " sid " << sid;
        for (std::size_t b = 0; b < obs::kNumConfidenceBuckets; ++b)
            EXPECT_EQ(got.mispredictsByConf[b], w.mispredictsByConf[b])
                << ctx << " sid " << sid << " bucket " << b;
    }
}

TEST(PreparedTrace, ColdAndWarmRunsBitExactOnEveryConfiguration)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Compress, 1, kMaxInstrs);
    std::vector<int> cache_lat;
    (void)computeMemoryLatencies(inst.trace, MemoryConfig::small(),
                                 &cache_lat);
    const std::vector<std::uint8_t> end_state =
        countersAfterPass(inst.trace);
    // Warm under every other configuration's keys as well.
    const Trace shared = inst.trace;

    for (Engine engine : {Engine::Fast, Engine::Reference})
        for (bool realistic : {false, true})
            for (bool cache_model : {false, true})
                for (int pe : {0, 4}) {
                    ModelRunOptions options;
                    options.engine = engine;
                    options.latency = realistic
                                          ? LatencyModel::realistic()
                                          : LatencyModel::unit();
                    options.loadLatencies =
                        cache_model ? &cache_lat : nullptr;
                    options.peLimit = pe;
                    options.gatherResolveStats = true;
                    options.gatherIssueStats = true;
                    // One trace copy per configuration: its first run
                    // is cold for every model's first touch.
                    const Trace trace = inst.trace;
                    for (ModelKind kind : allModels()) {
                        const std::string ctx =
                            std::string(engineName(engine)) + " " +
                            modelName(kind) +
                            (realistic ? " realistic" : " unit") +
                            (cache_model ? " cache" : "") + " PE" +
                            std::to_string(pe);
                        const CellRun cold = isolatedRun<TwoBitPredictor>(
                            kind, trace, inst.cfg, 32, options);
                        const CellRun warm = isolatedRun<TwoBitPredictor>(
                            kind, trace, inst.cfg, 32, options);
                        expectSameRun(cold, warm, ctx);
                        EXPECT_EQ(warm.builds, 0u) << ctx;
                        expectSameRun(
                            cold,
                            isolatedRun<TwoBitPredictor>(
                                kind, shared, inst.cfg, 32, options),
                            ctx + " shared");
                        if (kind == ModelKind::Oracle)
                            continue;
                        // The cached outcomes equal a pass run afresh.
                        const CellRun fresh = isolatedRun<OpaqueTwoBit>(
                            kind, trace, inst.cfg, 32, options);
                        expectSameResult(cold.result, fresh.result,
                                         ctx + " uncached");
                        EXPECT_EQ(fresh.counters, end_state) << ctx;
                        EXPECT_EQ(warm.counters, end_state) << ctx;
                    }
                }
}

TEST(PreparedTrace, PredictorEndStateMatchesAnUncachedRun)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, kMaxInstrs);
    const Trace trace = inst.trace;
    const std::vector<std::uint8_t> end_state = countersAfterPass(trace);
    // A caller's predictor arrives in any state; run() resets it and
    // must leave exactly what a real pass would, cold and warm alike.
    for (int round = 0; round < 2; ++round) {
        TwoBitPredictor pred(trace.numStatic);
        for (StaticId sid = 0; sid < trace.numStatic; ++sid)
            (void)pred.predictThenUpdate(sid, false);
        WindowSim sim(trace, SpecTree::singlePath(0.9, 16), SimConfig{});
        (void)sim.run(pred);
        EXPECT_EQ(pred.counters(), end_state) << "round " << round;
    }
}

TEST(PreparedTrace, OtherPredictorsAndProfilingStayExact)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Cc1, 1, kMaxInstrs);
    const std::vector<std::string> names = {"1bit", "tournament",
                                            "btfnt", "taken"};
    for (Engine engine : {Engine::Fast, Engine::Reference}) {
        ModelRunOptions options;
        options.engine = engine;
        for (const std::string &name : names) {
            const Trace trace = inst.trace;
            for (ModelKind kind :
                 {ModelKind::SP, ModelKind::DEE, ModelKind::DEE_CD_MF}) {
                SimResult results[2];
                for (SimResult &result : results) {
                    auto pred = makePredictor(name, trace.numStatic);
                    result = runModel(kind, trace, &inst.cfg, *pred, 32,
                                      options);
                }
                expectSameResult(results[0], results[1],
                                 name + " " + modelName(kind));
            }
        }

        // Profiling replays the cached outcomes; it must match the
        // profile an uncached pass records.
        options.gatherProfile = true;
        options.profileWorkload = inst.name;
        const Trace trace = inst.trace;
        for (ModelKind kind :
             {ModelKind::EE, ModelKind::SP_CD, ModelKind::DEE_CD_MF}) {
            const std::string ctx =
                std::string("profiling ") + modelName(kind);
            const CellRun cold = isolatedRun<TwoBitPredictor>(
                kind, trace, inst.cfg, 32, options);
            const CellRun warm = isolatedRun<TwoBitPredictor>(
                kind, trace, inst.cfg, 32, options);
            const CellRun fresh = isolatedRun<OpaqueTwoBit>(
                kind, trace, inst.cfg, 32, options);
            ASSERT_FALSE(cold.result.profile.empty()) << ctx;
            expectSameRun(cold, warm, ctx);
            expectSameRun(cold, fresh, ctx + " uncached");
            expectOnlineConfidenceBuckets(trace, cold.result.profile,
                                          ctx);
        }
    }
}

TEST(PreparedTrace, CopiedThenEditedTraceIsPreparedAfresh)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Eqntott, 1, kMaxInstrs);
    const Trace original = inst.trace;
    const ModelRunOptions options;
    const CellRun before = isolatedRun<TwoBitPredictor>(
        ModelKind::DEE_CD_MF, original, inst.cfg, 32, options);

    // Flip every third branch outcome in a copy of the simulated trace.
    Trace edited = original;
    std::size_t nth = 0;
    for (TraceRecord &rec : edited.records)
        if (rec.isBranch && nth++ % 3 == 0)
            rec.taken = !rec.taken;
    const Trace pristine = edited; // never simulated before its run

    const CellRun after = isolatedRun<TwoBitPredictor>(
        ModelKind::DEE_CD_MF, edited, inst.cfg, 32, options);
    const CellRun truth = isolatedRun<TwoBitPredictor>(
        ModelKind::DEE_CD_MF, pristine, inst.cfg, 32, options);
    EXPECT_GT(after.builds, 0u);
    EXPECT_NE(&PreparedTrace::of(edited), &PreparedTrace::of(original));
    expectSameRun(after, truth, "edited copy");
    EXPECT_NE(after.result.mispredicted, before.result.mispredicted);

    // Assigning over a prepared trace drops its preparation too.
    Trace target = original;
    (void)PreparedTrace::of(target);
    target = edited;
    const CellRun assigned = isolatedRun<TwoBitPredictor>(
        ModelKind::DEE_CD_MF, target, inst.cfg, 32, options);
    expectSameRun(assigned, truth, "assigned");
}

TEST(PreparedTraceDeathTest, GrowingASimulatedTraceIsRejected)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Eqntott, 1, kMaxInstrs);
    Trace trace = inst.trace;
    (void)PreparedTrace::of(trace);
    trace.records.push_back(trace.records.front());
    EXPECT_DEATH((void)PreparedTrace::of(trace), "simulate a fresh copy");
}

TEST(PreparedTrace, TwoCfgsNeverCrossHit)
{
    // Espresso's program has more blocks than compress's, so its graph
    // indexes every block of the compress trace — with different
    // postdominators, hence a different join index.
    const BenchmarkInstance a =
        makeInstance(WorkloadId::Compress, 1, kMaxInstrs);
    const BenchmarkInstance b =
        makeInstance(WorkloadId::Espresso, 1, kMaxInstrs);
    ASSERT_GE(b.cfg.numBlocks(), a.cfg.numBlocks());
    ASSERT_NE(a.cfg.serial(), b.cfg.serial());

    const auto joins_on_fresh_copy = [&](const Cfg &cfg) {
        const Trace copy = a.trace;
        return PreparedTrace::of(copy).joinIndex(cfg);
    };
    const std::vector<DynIndex> want_a = joins_on_fresh_copy(a.cfg);
    const std::vector<DynIndex> want_b = joins_on_fresh_copy(b.cfg);
    ASSERT_NE(want_a, want_b);

    // A later Cfg at the address of a destroyed one must not hit the
    // destroyed one's entry.
    const Trace trace = a.trace;
    const PreparedTrace &prep = PreparedTrace::of(trace);
    std::optional<Cfg> slot;
    slot.emplace(a.cfg);
    const Cfg *first = &*slot;
    EXPECT_EQ(prep.joinIndex(*slot), want_a);
    slot.reset();
    slot.emplace(b.cfg);
    ASSERT_EQ(&*slot, first);
    EXPECT_EQ(prep.joinIndex(*slot), want_b);
    EXPECT_EQ(prep.joinIndex(a.cfg), want_a);
}

TEST(PreparedTrace, RacingFirstUsesBuildOnceAndAgree)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, kMaxInstrs);
    ModelRunOptions options;
    options.profileWorkload = inst.name;
    const Trace reference_copy = inst.trace;
    const CellRun serial = isolatedRun<TwoBitPredictor>(
        ModelKind::DEE_CD_MF, reference_copy, inst.cfg, 32, options);

    constexpr int kThreads = 8;
    const Trace trace = inst.trace;
    std::vector<CellRun> runs(kThreads);
    std::barrier start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            runs[static_cast<std::size_t>(t)] =
                isolatedRun<TwoBitPredictor>(ModelKind::DEE_CD_MF, trace,
                                             inst.cfg, 32, options);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    std::uint64_t builds = 0;
    for (int t = 0; t < kThreads; ++t) {
        const CellRun &run = runs[static_cast<std::size_t>(t)];
        expectSameRun(run, serial, "thread " + std::to_string(t));
        builds += run.builds;
    }
    // Paths, 2-bit outcomes, join index and decode: each built once.
    EXPECT_EQ(builds, serial.builds);
    EXPECT_EQ(serial.builds, 4u);
}

} // namespace
} // namespace dee
