/**
 * @file
 * The eight ILP models of Section 5.2, as a ready-to-run suite.
 *
 * Each constrained model is a (tree shape, control-dependency regime)
 * pair fed to WindowSim; Oracle is the unconstrained dataflow limit.
 * runModel() also performs steps 1-3 of the static tree heuristic when
 * asked: measure the predictor's characteristic accuracy p on the trace,
 * then size the tree from (p, E_T). Like the paper's once-per-benchmark
 * step 1, the measurement and every other trace-only input is prepared
 * once per Trace object (core/sim/prepared_trace.hh) and shared by all
 * later cells over it.
 */

#ifndef DEE_CORE_SIM_MODELS_HH
#define DEE_CORE_SIM_MODELS_HH

#include <string>
#include <vector>

#include "core/sim/window_sim.hh"

namespace dee
{

/** The models of Section 5.2. */
enum class ModelKind
{
    EE,       ///< Eager Execution (comparison)
    SP,       ///< Single Path / branch prediction (comparison)
    DEE,      ///< DEE alone, restrictive control dependencies
    SP_CD,    ///< SP + reduced control dependencies (comparison)
    DEE_CD,   ///< DEE + reduced control dependencies
    SP_CD_MF, ///< SP + minimal control dependencies (comparison)
    DEE_CD_MF,///< DEE + minimal control dependencies (the headline model)
    Oracle,   ///< EE, unlimited resources; not realizable
};

/** Paper-style name, e.g. "DEE-CD-MF". */
const char *modelName(ModelKind kind);

/** All eight, in the paper's listing order. */
std::vector<ModelKind> allModels();

/** The seven resource-constrained models (everything but Oracle). */
std::vector<ModelKind> constrainedModels();

/** True for the models that use a DEE-shaped tree. */
bool usesDeeTree(ModelKind kind);

/** Control-dependency regime of a model (meaningless for Oracle). */
CdModel cdModelOf(ModelKind kind);

/**
 * Window shape for a constrained model: SP chain, EE level tree, or the
 * static DEE heuristic tree for (p, e_t).
 */
SpecTree treeForModel(ModelKind kind, double p, int e_t);

/** Options shared across a model-suite run. */
struct ModelRunOptions
{
    int mispredictPenalty = 1;
    LatencyModel latency = LatencyModel::unit();
    bool gatherResolveStats = false;
    /** Track per-cycle issue counts (peak/mean occupancy). */
    bool gatherIssueStats = false;
    /** Fill SimResult::account (see SimConfig::gatherAccounting). */
    bool gatherAccounting = true;
    /** Fill SimResult::profile (see SimConfig::gatherProfile); also
     *  forced on by the Session --profile flag. */
    bool gatherProfile = false;
    /**
     * Workload label for profile scoping: the profile lands in
     * ProfileStore::global() under "<profileWorkload>.<model name>"
     * ("<model name>" alone when empty), so per-branch stats from
     * different workloads never conflate static ids.
     */
    std::string profileWorkload;
    /**
     * Characteristic accuracy for tree sizing; <= 0 means "measure it
     * from the trace with a clone of the predictor" (heuristic step 1).
     */
    double characteristicP = -1.0;
    /** Issue-width limit (0 = unlimited, the paper's assumption). */
    int peLimit = 0;
    /** Optional per-record load latencies from the cache model. */
    const std::vector<int> *loadLatencies = nullptr;
    /** Forward-pass kernel (see SimConfig::engine); defaults to the
     *  process-wide --engine / DEE_ENGINE selection. */
    Engine engine = selectedEngine();
};

/**
 * Measures the predictor's accuracy on the trace using a fresh clone
 * (heuristic step 1). Clamped into [0.5, 0.995] so tree geometry stays
 * well-defined even on degenerate traces. For a TwoBitPredictor the
 * pass is the trace's prepared one (run on first use, then reused).
 * Other predictors replay a clone over the prepared branch paths
 * (measurePreparedAccuracy()), reading no trace records. Either way
 * the bpred.<name>.* registry bookkeeping is published on every call.
 */
double characteristicAccuracy(const Trace &trace,
                              const BranchPredictor &predictor);

/**
 * Runs one model at one resource level. The first run over a Trace
 * object prepares it (paths, decode, join index, 2-bit predictor
 * outcomes; see core/sim/prepared_trace.hh); later runs, on any
 * thread, reuse that preparation. Edit a trace only through a fresh
 * copy once it has been simulated.
 *
 * @param cfg required for the CD / CD-MF models; may be null otherwise.
 * @param predictor reset and trained by the run; its end state is the
 *        same whether or not the trace was prepared before.
 * @param e_t branch-path resource budget (ignored by Oracle).
 */
SimResult runModel(ModelKind kind, const Trace &trace, const Cfg *cfg,
                   BranchPredictor &predictor, int e_t,
                   const ModelRunOptions &options = {});

} // namespace dee

#endif // DEE_CORE_SIM_MODELS_HH
