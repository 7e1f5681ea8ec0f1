/**
 * @file
 * The benchmark's three workloads (README.md says why each exists).
 *
 * Every call into the library goes through a public function, and the
 * spans are recorded here around those calls, never inside src/.
 */

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/absint/bounds.hh"
#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "common/stats.hh"
#include "exec/interp.hh"
#include "mem/cache.hh"
#include "obs/registry.hh"
#include "perfbench.hh"
#include "runner/seed.hh"
#include "runner/sweep.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

using dee::BenchmarkInstance;
using dee::ModelKind;

/** The interpreter step cap makeSuite() uses. */
constexpr std::uint64_t kMaxInstrs = 50'000'000;

/**
 * makeInstance() split into its public calls so each gets a span:
 * generate, CFG, interpret.
 */
BenchmarkInstance
buildInstance(dee::WorkloadId id, int scale, std::uint64_t seed,
              SpanLog *log, std::int64_t item)
{
    dee::Program program = [&] {
        SpanScope span(log, "workloads.gen", item);
        return dee::makeWorkload(id, scale, seed);
    }();
    // As makeInstance() does: fill the lazy static-id index while the
    // program is private to this thread, since runner workers share it.
    if (program.numInstrs() > 0)
        (void)program.staticId(0, 0);
    dee::Cfg cfg = [&] {
        SpanScope span(log, "cfg.build", item);
        return dee::Cfg(program);
    }();
    dee::ExecResult run = [&] {
        SpanScope span(log, "exec.interpret", item);
        dee::ExecResult result =
            dee::Interpreter(program).run(kMaxInstrs, true);
        span.setWork(result.trace.size());
        return result;
    }();
    if (!run.halted)
        throw std::runtime_error(std::string(dee::workloadName(id)) +
                                 " hit the interpreter step cap");
    return BenchmarkInstance{id, dee::workloadName(id), std::move(program),
                             std::move(cfg), std::move(run.trace)};
}

void
analyze(const BenchmarkInstance &inst, SpanLog *log)
{
    SpanScope span(log, "absint", -1);
    (void)dee::analysis::absint::analyzeProgram(inst.program, inst.cfg);
}

/** One runModel call with a fresh predictor, spanned by model. */
SimStats
simulate(ModelKind kind, const BenchmarkInstance &inst, int et,
         dee::ModelRunOptions options, dee::Engine engine, SpanLog *log,
         std::int64_t item)
{
    dee::TwoBitPredictor pred(inst.trace.numStatic);
    options.profileWorkload = inst.name;
    options.engine = engine;
    SpanScope span(log,
                   kind == ModelKind::Oracle ? "sim.oracle" : "sim.window",
                   item, dee::modelName(kind));
    const dee::SimResult result =
        dee::runModel(kind, inst.trace, &inst.cfg, pred, et, options);
    span.setWork(result.instructions);
    return statsOf(kind, et, result);
}

std::string
labelOf(const char *workload, const std::string &trace, ModelKind kind,
        int et, int pe, std::uint64_t seed)
{
    return std::string(workload) + " " + trace + " " +
           dee::modelName(kind) + " E_T=" + std::to_string(et) +
           " PE=" + (pe == 0 ? std::string("inf") : std::to_string(pe)) +
           " seed=" + std::to_string(seed);
}

std::uint64_t
recordsOf(const std::vector<BenchmarkInstance> &suite)
{
    std::uint64_t records = 0;
    for (const BenchmarkInstance &inst : suite)
        records += inst.trace.size();
    return records;
}

/**
 * The per-call cost of the work every runModel cell repeats on its
 * trace: the predictor accuracy pass, path segmentation and the tree
 * for each (model, E_T).
 */
void
probePrepare(const std::vector<BenchmarkInstance> &suite,
             const std::vector<int> &ets, LayerMetrics &out)
{
    double accuracyMs = 0.0;
    double segmentMs = 0.0;
    double treeMs = 0.0;
    std::size_t trees = 0;
    for (const BenchmarkInstance &inst : suite) {
        dee::TwoBitPredictor pred(inst.trace.numStatic);
        auto start = Clock::now();
        const double p = dee::characteristicAccuracy(inst.trace, pred);
        accuracyMs += msSince(start);

        start = Clock::now();
        const std::vector<dee::BranchPath> paths =
            dee::segmentPaths(inst.trace);
        segmentMs += msSince(start);

        for (ModelKind kind : dee::constrainedModels())
            for (int et : ets) {
                start = Clock::now();
                const dee::SpecTree tree = dee::treeForModel(kind, p, et);
                treeMs += msSince(start);
                ++trees;
            }
    }
    const double n = static_cast<double>(suite.size());
    out["bpred.accuracy_ms"] = accuracyMs / n;
    out["trace.segment_ms"] = segmentMs / n;
    out["tree.build_ms"] = treeMs / static_cast<double>(trees);
}

/** Cache replay of each set-up trace, for workloads that skip it. */
void
probeMemory(const std::vector<BenchmarkInstance> &suite, LayerMetrics &out)
{
    double ms = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    for (const BenchmarkInstance &inst : suite) {
        std::vector<int> latencies;
        const auto start = Clock::now();
        const dee::MemoryStats stats = dee::computeMemoryLatencies(
            inst.trace, dee::MemoryConfig::small(), &latencies);
        ms += msSince(start);
        hits += stats.l1Hits;
        accesses += stats.l1Hits + stats.l1Misses;
    }
    out["mem.replay_ms"] = ms;
    out["mem.l1_hit_frac"] =
        static_cast<double>(hits) / static_cast<double>(accesses);
}

/**
 * runner merge cost for workloads that run serially (the serial path
 * merges nothing): the Oracle of each set-up trace as 2-worker cells.
 */
void
probeRunnerMerge(const std::vector<BenchmarkInstance> &suite,
                 LayerMetrics &out)
{
    dee::RunningStat &merge =
        dee::obs::Registry::process().stat("runner.merge_ms");
    const double before = merge.sum();
    dee::runner::SweepOptions sweep;
    sweep.jobs = 2;
    dee::runner::runCells(suite.size(), sweep, [&](std::size_t i) {
        (void)simulate(ModelKind::Oracle, suite[i], 0, {},
                       dee::selectedEngine(), nullptr, -1);
    });
    out["runner.merge_ms"] = merge.sum() - before;
}

/** One (model, E_T, PE limit) point of a per-trace grid. */
struct Cell
{
    ModelKind kind;
    int et;
    int pe;
};

/**
 * fig5_grid: Figure 5's sweep plus the E_T = 100 headline points on
 * the five calibrated traces, 2 workers.
 */
class Fig5Grid : public Workload
{
  public:
    Fig5Grid(std::uint64_t seed, const Params &params)
        : seed_(seed), scale_(params.fig5Scale)
    {
        for (ModelKind kind : dee::constrainedModels())
            for (int et : kEts)
                cells_.push_back({kind, et, 0});
        cells_.push_back({ModelKind::Oracle, kEts.front(), 0});
        for (ModelKind kind :
             {ModelKind::DEE_CD_MF, ModelKind::SP, ModelKind::EE})
            cells_.push_back({kind, 100, 0});
    }

    const char *name() const override { return "fig5_grid"; }
    std::size_t items() const override
    {
        return suite_.size() * cells_.size();
    }
    int jobs() const override { return kJobs; }

    void
    setup(SpanLog *log) override
    {
        suite_.clear();
        for (dee::WorkloadId id : dee::allWorkloads()) {
            suite_.push_back(buildInstance(id, scale_, seed_, log, -1));
            analyze(suite_.back(), log);
        }
    }

    ItemResult
    runItem(std::size_t index, dee::Engine engine,
            SpanLog *log) const override
    {
        const BenchmarkInstance &inst = suite_[index / cells_.size()];
        const Cell &cell = cells_[index % cells_.size()];
        ItemResult item;
        item.trace = inst.name;
        item.label =
            labelOf(name(), inst.name, cell.kind, cell.et, 0, seed_);
        const auto start = Clock::now();
        item.runs.push_back(simulate(cell.kind, inst, cell.et, {}, engine,
                                     log,
                                     static_cast<std::int64_t>(index)));
        item.ms = msSince(start);
        return item;
    }

    std::uint64_t
    liveRecords(const std::vector<ItemResult> &) const override
    {
        return recordsOf(suite_);
    }

    void
    probe(LayerMetrics &out) const override
    {
        probePrepare(suite_, kEts, out);
        probeMemory(suite_, out);
    }

    /**
     * The six Section 5.3 claims bench/headline_claims.cpp computes,
     * over the harmonic mean of the five traces, and their mean
     * relative distance from the paper's values.
     */
    std::map<std::string, double>
    reportExtras(const std::vector<ItemResult> &pass) const override
    {
        auto hm = [&](const char *model, int et) {
            std::vector<double> speedups;
            for (const ItemResult &item : pass)
                for (const SimStats &run : item.runs)
                    if (run.model == model &&
                        (run.et == et || run.model == "Oracle"))
                        speedups.push_back(run.speedup);
            return dee::harmonicMean(speedups);
        };
        const double dee100 = hm("DEE-CD-MF", 100);
        const double oracle = hm("Oracle", 0);
        const std::vector<std::pair<std::string, std::pair<double, double>>>
            claims{
                {"claim.dee100", {dee100, 31.9}},
                {"claim.dee100_over_sp100", {dee100 / hm("SP", 100), 5.8}},
                {"claim.dee100_over_ee100", {dee100 / hm("EE", 100), 4.0}},
                {"claim.dee8_over_ee256",
                 {hm("DEE-CD-MF", 8) / hm("EE", 256), 1.0}},
                {"claim.dee32", {hm("DEE-CD-MF", 32), 26.0}},
                {"claim.dee100_of_oracle_pct",
                 {100.0 * dee100 / oracle, 59.0}},
            };
        std::map<std::string, double> out;
        double err = 0.0;
        for (const auto &[claim, values] : claims) {
            out[claim] = values.first;
            err += std::abs(values.first / values.second - 1.0);
        }
        out["paper_err_pct"] =
            100.0 * err / static_cast<double>(claims.size());
        return out;
    }

  private:
    static inline const std::vector<int> kEts{8, 16, 32, 64, 128, 256};
    static constexpr int kJobs = 2;

    std::uint64_t seed_;
    int scale_;
    std::vector<Cell> cells_;
    std::vector<BenchmarkInstance> suite_;
};

/**
 * fresh_traces: every item generates, interprets and simulates a trace
 * nobody has seen, then frees it. One worker.
 */
class FreshTraces : public Workload
{
  public:
    FreshTraces(std::uint64_t seed, const Params &params)
        : seed_(seed), scales_(params.freshScales),
          items_(params.freshItems)
    {
    }

    const char *name() const override { return "fresh_traces"; }
    std::size_t items() const override { return items_; }
    int jobs() const override { return 1; }

    /** Process warm-up: the five templates at scale 1 with their
     *  static bounds, also the instances the probes run on. */
    void
    setup(SpanLog *log) override
    {
        warm_.clear();
        for (dee::WorkloadId id : dee::allWorkloads()) {
            warm_.push_back(buildInstance(id, 1, 0, log, -1));
            analyze(warm_.back(), log);
        }
    }

    ItemResult
    runItem(std::size_t index, dee::Engine engine,
            SpanLog *log) const override
    {
        const std::vector<dee::WorkloadId> ids = dee::allWorkloads();
        const dee::WorkloadId id = ids[index % ids.size()];
        const int scale = scales_[index % scales_.size()];
        // Held-back workload seeds: a pure function of (--seed,
        // workload, item), never 0, so no item repeats a tuned input.
        const std::uint64_t wseed = dee::runner::cellSeed(
            seed_, dee::workloadName(id), name(), index);
        const auto item_id = static_cast<std::int64_t>(index);

        ItemResult item;
        item.trace = std::string(dee::workloadName(id)) + "@" +
                     std::to_string(scale) + "#" + std::to_string(index);
        item.label = labelOf(name(), item.trace, ModelKind::DEE_CD_MF,
                             kEt, 0, wseed);
        const auto start = Clock::now();
        {
            const BenchmarkInstance inst =
                buildInstance(id, scale, wseed, log, item_id);
            item.records = inst.trace.size();
            item.runs.push_back(simulate(ModelKind::DEE_CD_MF, inst, kEt,
                                         {}, engine, log, item_id));
            item.runs.push_back(simulate(ModelKind::Oracle, inst, kEt, {},
                                         engine, log, item_id));
        }
        item.ms = msSince(start);
        return item;
    }

    /** Only one item's trace is live at a time: the largest. */
    std::uint64_t
    liveRecords(const std::vector<ItemResult> &pass) const override
    {
        std::uint64_t most = 0;
        for (const ItemResult &item : pass)
            most = std::max(most, item.records);
        return most;
    }

    void
    probe(LayerMetrics &out) const override
    {
        probePrepare(warm_, {kEt}, out);
        probeMemory(warm_, out);
        probeRunnerMerge(warm_, out);
        // The models this workload never runs, once each at E_T = 32.
        for (ModelKind kind : dee::constrainedModels()) {
            if (kind == ModelKind::DEE_CD_MF)
                continue;
            const auto start = Clock::now();
            for (const BenchmarkInstance &inst : warm_)
                (void)simulate(kind, inst, kEt, {}, dee::selectedEngine(),
                               nullptr, -1);
            out[std::string("sim.") + dee::modelName(kind) + ".ms"] =
                msSince(start);
        }
    }

  private:
    static constexpr int kEt = 32;

    std::uint64_t seed_;
    std::vector<int> scales_;
    std::size_t items_;
    std::vector<BenchmarkInstance> warm_;
};

/**
 * pe_latency: realistic op latencies, cache-model load latencies and
 * explicit PE limits on the five traces at scale 2. One worker.
 */
class PeLatency : public Workload
{
  public:
    PeLatency(std::uint64_t seed, const Params &params)
        : seed_(seed), scale_(params.peScale)
    {
        for (int pe : {4, 16})
            for (int et : kEts)
                for (ModelKind kind : dee::constrainedModels())
                    cells_.push_back({kind, et, pe});
        cells_.push_back({ModelKind::Oracle, kEts.front(), 0});
    }

    const char *name() const override { return "pe_latency"; }
    std::size_t items() const override
    {
        return suite_.size() * cells_.size();
    }
    int jobs() const override { return 1; }

    void
    setup(SpanLog *log) override
    {
        suite_.clear();
        latencies_.clear();
        l1Hits_ = 0;
        l1Accesses_ = 0;
        for (dee::WorkloadId id : dee::allWorkloads()) {
            suite_.push_back(buildInstance(id, scale_, seed_, log, -1));
            analyze(suite_.back(), log);
            SpanScope span(log, "mem.replay", -1);
            std::vector<int> latencies;
            const dee::MemoryStats stats = dee::computeMemoryLatencies(
                suite_.back().trace, dee::MemoryConfig::small(),
                &latencies);
            l1Hits_ += stats.l1Hits;
            l1Accesses_ += stats.l1Hits + stats.l1Misses;
            latencies_.push_back(std::move(latencies));
        }
    }

    ItemResult
    runItem(std::size_t index, dee::Engine engine,
            SpanLog *log) const override
    {
        const std::size_t trace = index / cells_.size();
        const BenchmarkInstance &inst = suite_[trace];
        const Cell &cell = cells_[index % cells_.size()];
        dee::ModelRunOptions options;
        options.latency = dee::LatencyModel::realistic();
        options.loadLatencies = &latencies_[trace];
        options.peLimit = cell.pe;
        ItemResult item;
        item.trace = inst.name;
        item.label = labelOf(name(), inst.name, cell.kind, cell.et,
                             cell.pe, seed_);
        const auto start = Clock::now();
        item.runs.push_back(simulate(cell.kind, inst, cell.et, options,
                                     engine, log,
                                     static_cast<std::int64_t>(index)));
        item.ms = msSince(start);
        return item;
    }

    std::uint64_t
    liveRecords(const std::vector<ItemResult> &) const override
    {
        return recordsOf(suite_);
    }

    void
    probe(LayerMetrics &out) const override
    {
        probePrepare(suite_, kEts, out);
        probeRunnerMerge(suite_, out);
        out["mem.l1_hit_frac"] = static_cast<double>(l1Hits_) /
                                 static_cast<double>(l1Accesses_);
    }

  private:
    static inline const std::vector<int> kEts{16, 64};

    std::uint64_t seed_;
    int scale_;
    std::vector<Cell> cells_;
    std::vector<BenchmarkInstance> suite_;
    std::vector<std::vector<int>> latencies_;
    std::uint64_t l1Hits_ = 0;
    std::uint64_t l1Accesses_ = 0;
};

} // namespace

std::map<std::string, double>
Workload::reportExtras(const std::vector<ItemResult> &) const
{
    return {};
}

std::vector<std::string>
workloadNames()
{
    return {"fig5_grid", "fresh_traces", "pe_latency"};
}

std::unique_ptr<Workload>
makeWorkloadByName(const std::string &name, std::uint64_t seed,
                   const Params &params)
{
    if (name == "fig5_grid")
        return std::make_unique<Fig5Grid>(seed, params);
    if (name == "fresh_traces")
        return std::make_unique<FreshTraces>(seed, params);
    if (name == "pe_latency")
        return std::make_unique<PeLatency>(seed, params);
    return nullptr;
}

} // namespace perfbench
