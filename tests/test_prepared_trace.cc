/**
 * @file
 * PreparedTrace: the per-trace paths, decode, join index and predictor
 * outcomes that every simulation of a trace shares.
 *
 * A cold run (the first simulation of a Trace object, which builds the
 * preparation) and a warm run (a later one, which reads it) must agree
 * bit for bit on every model, latency model, load-latency override, PE
 * limit and engine, and both must match a predictor pass run afresh.
 * The one forward sweep that builds the preparation is checked
 * against plain recomputations written here: segmentPaths, the
 * backward join sweep it replaced, std::map address numbering and a
 * predictor pass over the records. The rest pins the cache's keys and
 * lifetime: copies and Cfgs never share entries by accident, and
 * racing first uses build once.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

/** @p got must equal @p want; on a mismatch, names the first index
 *  where they differ. */
template <typename T>
void
expectSameSeq(const std::vector<T> &got, const std::vector<T> &want,
              const std::string &what, const std::string &ctx)
{
    const std::size_t n = std::min(got.size(), want.size());
    std::size_t at = 0;
    while (at < n && got[at] == want[at])
        ++at;
    EXPECT_TRUE(at == n && got.size() == want.size())
        << ctx << ": " << what << " differs at " << at << " (sizes "
        << got.size() << " vs " << want.size() << ")";
}

/**
 * The join index by an independent method, a backward sweep: next_occ[b]
 * is the first dynamic index of block b strictly after the sweep
 * cursor, and paths are pushed after their own branch is queried.
 */
std::vector<DynIndex>
backwardJoinIndex(const Trace &trace, const std::vector<BranchPath> &paths,
                  const Cfg &cfg)
{
    const auto &records = trace.records;
    const DynIndex n = records.size();
    std::vector<DynIndex> join(paths.size(), n);
    std::vector<DynIndex> next_occ(cfg.numBlocks() + 1, n);
    for (std::size_t k = paths.size(); k-- > 0;) {
        if (paths[k].endsInBranch) {
            const BlockId ipdom =
                cfg.ipostdom(records[paths[k].branchIndex()].block);
            if (ipdom < cfg.numBlocks())
                join[k] = next_occ[ipdom];
        }
        for (DynIndex i = paths[k].end; i-- > paths[k].begin;)
            next_occ[records[i].block] = i;
    }
    return join;
}

std::uint8_t
expectedSlot(RegId r, std::size_t none)
{
    return static_cast<std::uint8_t>(
        (r == kNoReg || r == kZeroReg) ? none : r);
}

/**
 * Everything @p trace's preparation holds, against plain
 * recomputations from the records. @p trace must be unprepared: its
 * first use passes @p cfg (null for a cfg-less first use), and the join
 * index is then checked under @p cfg and @p other_cfg when given.
 */
void
expectSweepMatchesOracles(const Trace &trace, const Cfg *cfg,
                          const Cfg *other_cfg, const std::string &ctx)
{
    const auto &records = trace.records;
    const PreparedTrace &prep = PreparedTrace::of(trace, cfg);

    // Paths and their exit branches.
    const std::vector<BranchPath> paths = segmentPaths(trace);
    ASSERT_EQ(prep.paths().size(), paths.size()) << ctx;
    std::vector<StaticId> sids;
    std::vector<std::uint8_t> backward;
    std::vector<std::uint8_t> taken;
    for (std::size_t k = 0; k < paths.size(); ++k) {
        const BranchPath &want = paths[k];
        const BranchPath &got = prep.paths()[k];
        ASSERT_TRUE(got.begin == want.begin && got.end == want.end &&
                    got.endsInBranch == want.endsInBranch)
            << ctx << ": path " << k;
        EXPECT_EQ(prep.ends().test(k), want.endsInBranch) << ctx;
        const TraceRecord none;
        const TraceRecord &b =
            want.endsInBranch ? records[want.branchIndex()] : none;
        sids.push_back(want.endsInBranch ? b.sid : 0);
        backward.push_back(b.backward ? 1 : 0);
        taken.push_back(b.taken ? 1 : 0);
    }
    EXPECT_EQ(prep.ends().size(), paths.size()) << ctx;
    expectSameSeq(prep.branchSids(), sids, "branch sids", ctx);
    expectSameSeq(prep.backward(), backward, "backward flags", ctx);
    expectSameSeq(prep.taken(), taken, "directions", ctx);

    // Decode: class and slots per record, addresses numbered in order
    // of first use, latencies through the class table.
    const DecodedTrace &dec = prep.decode();
    ASSERT_EQ(dec.instrs.size(), records.size()) << ctx;
    std::map<std::uint64_t, std::uint32_t> ids;
    std::vector<std::uint32_t> addr_ids;
    const LatencyModel odd{2, 5, 3, 7, 11};
    const LatencyTable unit_table = latencyTable(LatencyModel::unit());
    const LatencyTable odd_table = latencyTable(odd);
    std::vector<int> load_lat(records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        load_lat[i] = 20 + static_cast<int>(i % 7);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        const DecodedInstr &d = dec.instrs[i];
        const OpClass cls = opClass(rec.op);
        ASSERT_TRUE(d.cls == cls &&
                    d.src1 == expectedSlot(rec.rs1, kZeroSlot) &&
                    d.src2 == expectedSlot(rec.rs2, kZeroSlot) &&
                    d.dst == expectedSlot(rec.rd, kSinkSlot))
            << ctx << ": decode of record " << i;
        ASSERT_TRUE(dec.latency(i, unit_table, nullptr) == 1 &&
                    dec.latency(i, odd_table, nullptr) == odd.of(cls) &&
                    dec.latency(i, odd_table, &load_lat) ==
                        (cls == OpClass::Load ? load_lat[i] : odd.of(cls)))
            << ctx << ": latency of record " << i;
        if (cls == OpClass::Load || cls == OpClass::Store) {
            const auto next = static_cast<std::uint32_t>(ids.size());
            addr_ids.push_back(ids.try_emplace(rec.memAddr, next).first->second);
        }
    }
    expectSameSeq(dec.addrIds, addr_ids, "address ids", ctx);
    EXPECT_EQ(dec.numAddrs, ids.size()) << ctx;

    // Join index, under the sweep's Cfg and a later one.
    for (const Cfg *g : {cfg, other_cfg}) {
        if (g != nullptr) {
            expectSameSeq(prep.joinIndex(*g),
                          backwardJoinIndex(trace, paths, *g),
                          "join index", ctx);
        }
    }

    // Predictor outcomes: a plain pass over the records through the
    // virtual interface.
    OpaqueTwoBit plain(trace.numStatic);
    ConfidenceEstimator confidence(trace.numStatic);
    std::vector<std::uint8_t> correct(paths.size(), 1);
    std::uint64_t branches = 0;
    std::uint64_t right_count = 0;
    for (std::size_t k = 0; k < paths.size(); ++k) {
        if (!paths[k].endsInBranch)
            continue;
        const TraceRecord &b = records[paths[k].branchIndex()];
        BranchQuery q;
        q.sid = b.sid;
        q.actual = b.taken;
        const bool right = plain.predict(q) == b.taken;
        plain.update(q, b.taken);
        correct[k] = right ? 1 : 0;
        confidence.record(b.sid, right);
        ++branches;
        right_count += right ? 1 : 0;
    }
    std::vector<std::uint8_t> buckets(paths.size(), 0);
    std::vector<std::uint32_t> next_uncrossable(paths.size() + 1);
    next_uncrossable[paths.size()] = static_cast<std::uint32_t>(paths.size());
    for (std::size_t k = paths.size(); k-- > 0;) {
        if (paths[k].endsInBranch) {
            buckets[k] = static_cast<std::uint8_t>(obs::confidenceBucket(
                confidence.estimate(records[paths[k].branchIndex()].sid)));
        }
        next_uncrossable[k] = (paths[k].endsInBranch && correct[k] != 0)
                                  ? next_uncrossable[k + 1]
                                  : static_cast<std::uint32_t>(k);
    }
    OpaqueTwoBit opaque(trace.numStatic);
    const BranchOutcomes uncached = predictOutcomes(prep, opaque);
    for (const BranchOutcomes *out :
         {&prep.twoBitOutcomes(trace.numStatic), &uncached}) {
        const std::string which =
            ctx + (out == &uncached ? " uncached" : " 2-bit");
        expectSameSeq(out->correct, correct, "outcomes", which);
        for (std::size_t k = 0; k < paths.size(); ++k)
            ASSERT_EQ(out->correctBits.test(k), correct[k] != 0) << which;
        EXPECT_EQ(out->accuracy.branches, branches) << which;
        EXPECT_EQ(out->accuracy.correct, right_count) << which;
        expectSameSeq(out->squashBucket, buckets, "squash buckets", which);
        expectSameSeq(out->nextUncrossable, next_uncrossable,
                      "next uncrossable paths", which);
    }
    EXPECT_EQ(prep.twoBitOutcomes(trace.numStatic).finalCounters,
              plain.counters())
        << ctx;
}

/** A fresh (unprepared) trace of @p from's records [0, @p end). */
Trace
prefixOf(const Trace &from, std::size_t end)
{
    Trace t;
    t.numStatic = from.numStatic;
    t.records.assign(from.records.begin(),
                     from.records.begin() + static_cast<long>(end));
    return t;
}

TEST(PreparedTraceSweep, MatchesPlainRecomputationsOnEveryWorkload)
{
    const BenchmarkInstance other =
        makeInstance(WorkloadId::Espresso, 1, kMaxInstrs);
    for (WorkloadId id : allWorkloads())
        for (int scale : {1, 4})
            for (std::uint64_t seed : {0u, 7u}) {
                const BenchmarkInstance inst =
                    makeInstance(id, scale, 50'000'000, seed);
                const std::string ctx = std::string(workloadName(id)) +
                                        " scale " + std::to_string(scale) +
                                        " seed " + std::to_string(seed);
                ASSERT_GT(inst.trace.size(), 0u) << ctx;
                const Trace trace = inst.trace;
                // Espresso's graph covers every other program's blocks.
                const bool covers =
                    other.cfg.numBlocks() >= inst.cfg.numBlocks();
                expectSweepMatchesOracles(trace, &inst.cfg,
                                          covers ? &other.cfg : nullptr,
                                          ctx);
            }
}

TEST(PreparedTraceSweep, EdgeShapes)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Compress, 1, kMaxInstrs);
    const auto &records = inst.trace.records;
    std::vector<std::size_t> branches;
    for (std::size_t i = 0; i < records.size(); ++i)
        if (records[i].isBranch)
            branches.push_back(i);
    ASSERT_GE(branches.size(), 20u);
    ASSERT_GT(branches[0], 0u);

    Trace empty;
    empty.numStatic = inst.trace.numStatic;
    expectSweepMatchesOracles(empty, &inst.cfg, nullptr, "empty");
    EXPECT_EQ(PreparedTrace::of(empty).twoBitOutcomes(empty.numStatic)
                  .nextUncrossable,
              std::vector<std::uint32_t>{0});

    const Trace no_branch = prefixOf(inst.trace, branches[0]);
    expectSweepMatchesOracles(no_branch, &inst.cfg, nullptr, "no branch");
    EXPECT_EQ(PreparedTrace::of(no_branch).joinIndex(inst.cfg),
              std::vector<DynIndex>{no_branch.size()});

    const Trace ends_in_branch = prefixOf(inst.trace, branches[19] + 1);
    expectSweepMatchesOracles(ends_in_branch, &inst.cfg, nullptr,
                              "ends in a branch");
    EXPECT_TRUE(PreparedTrace::of(ends_in_branch).paths().back().endsInBranch);

    // A cfg-less first use: the join index is built on its own later.
    const Trace cfgless = inst.trace;
    expectSweepMatchesOracles(cfgless, nullptr, &inst.cfg, "cfg-less");
}

/** Counts perf.prepare.builds across @p body. */
template <typename Body>
std::uint64_t
buildsDuring(Body &&body)
{
    obs::CellSink sink;
    {
        const obs::IsolationScope scope(sink);
        body();
    }
    const std::uint64_t *b =
        sink.registry.findCounter("perf.prepare.builds");
    return b != nullptr ? *b : 0;
}

TEST(PreparedTraceSweep, CfgLessFirstUseThenCdModelStaysExact)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, kMaxInstrs);
    const ModelRunOptions options;
    const Trace cold = inst.trace;
    const CellRun want = isolatedRun<TwoBitPredictor>(
        ModelKind::DEE_CD_MF, cold, inst.cfg, 32, options);
    // With the Cfg: one sweep (join included) and the 2-bit outcomes.
    EXPECT_EQ(want.builds, 2u);

    const TwoBitPredictor probe(inst.trace.numStatic);
    const Trace after_accuracy = inst.trace;
    EXPECT_EQ(buildsDuring([&] {
                  (void)characteristicAccuracy(after_accuracy, probe);
              }),
              2u);
    const CellRun a = isolatedRun<TwoBitPredictor>(
        ModelKind::DEE_CD_MF, after_accuracy, inst.cfg, 32, options);
    expectSameRun(a, want, "after characteristicAccuracy");
    EXPECT_EQ(a.builds, 1u) << "only the join index is left to build";

    const Trace after_oracle = inst.trace;
    EXPECT_EQ(buildsDuring([&] {
                  (void)oracleSim(after_oracle, LatencyModel::realistic());
              }),
              1u);
    const CellRun b = isolatedRun<TwoBitPredictor>(
        ModelKind::DEE_CD_MF, after_oracle, inst.cfg, 32, options);
    expectSameRun(b, want, "after the Oracle");
    EXPECT_EQ(b.builds, 2u) << "the join index and the 2-bit outcomes";
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

TEST(PreparedTrace, BtfntSeesTheRecordedBackwardFlag)
{
    // btfnt predicts taken exactly for backward branches: its in-sim
    // accuracy must equal measureAccuracy's on the same trace and the
    // count the program's backward table gives.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, kMaxInstrs);
    const std::vector<bool> backward = backwardTable(inst.program);
    std::uint64_t branches = 0, correct = 0;
    for (const TraceRecord &rec : inst.trace.records) {
        if (!rec.isBranch)
            continue;
        ++branches;
        correct += rec.taken == backward[rec.sid] ? 1 : 0;
    }
    BtfntPredictor measured;
    const AccuracyReport want = measureAccuracy(inst.trace, measured);
    EXPECT_EQ(want.branches, branches);
    EXPECT_EQ(want.correct, correct);

    BtfntPredictor in_sim;
    const BranchOutcomes out =
        predictOutcomes(PreparedTrace::of(inst.trace, &inst.cfg), in_sim);
    EXPECT_EQ(out.accuracy.branches, branches);
    EXPECT_EQ(out.accuracy.correct, correct);
    for (Engine engine : {Engine::Fast, Engine::Reference}) {
        ModelRunOptions options;
        options.engine = engine;
        BtfntPredictor pred;
        const SimResult r = runModel(ModelKind::DEE_CD_MF, inst.trace,
                                     &inst.cfg, pred, 32, options);
        EXPECT_EQ(r.branches, branches);
        EXPECT_EQ(r.branches - r.mispredicted, correct);
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
    // The one sweep (paths, decode and join index) and the 2-bit
    // outcomes: each built once.
    EXPECT_EQ(builds, serial.builds);
    EXPECT_EQ(serial.builds, 2u);
}

} // namespace
} // namespace dee
