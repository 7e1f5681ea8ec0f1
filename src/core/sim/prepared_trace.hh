/**
 * @file
 * Per-trace simulation preparation, done once per trace instead of once
 * per simulated cell.
 *
 * Figure 5 sweeps seven window models x six E_T over each benchmark
 * trace, and step 1 of the static-tree heuristic measures the
 * predictor's characteristic accuracy p once per benchmark. Everything
 * a simulation derives from the trace alone — the branch paths with
 * each exit branch's static id and direction, the packed decoded
 * instruction stream with compact address ids, the control-dependence
 * join index and the 2-bit predictor's outcomes — is therefore built on the first
 * simulation that touches a Trace and shared, read-only, by every later
 * one, on any thread.
 *
 * Cache keys: the decode by LatencyModel value (per-run cache-model
 * load latencies stay an override the kernels read directly), the join
 * index by Cfg::serial(), the predictor outcomes by the 2-bit table
 * size (the predictor is reset before every run, so the size fixes
 * every prediction). Lifetime: the Trace owns its PreparedTrace
 * (Trace::prepared); copies of a trace start unprepared. Editing a
 * trace's records after it was simulated needs a fresh Trace.
 *
 * Builds are published as perf.prepare.{builds,hits,build_ms} and
 * sampled under the "prepare" hotspot phase.
 */

#ifndef DEE_CORE_SIM_PREPARED_TRACE_HH
#define DEE_CORE_SIM_PREPARED_TRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "common/bit_matrix.hh"
#include "core/sim/window_sim.hh"
#include "trace/trace.hh"

namespace dee
{

/**
 * Register-availability slots of the decoded stream: architectural
 * registers 1..31 map to themselves; a missing source reads the
 * always-zero slot (the max identity, exactly "no dependence
 * contributes 0"); a missing destination writes a sink slot nobody
 * reads.
 */
constexpr std::size_t kZeroSlot = kNumRegs;
constexpr std::size_t kSinkSlot = kNumRegs + 1;
constexpr std::size_t kNumSlots = kNumRegs + 2;

/**
 * Packed decoded instruction: the fast kernels' entire working set per
 * instruction (plus DecodedTrace::addrIds for memory ops).
 */
struct DecodedInstr
{
    std::int32_t lat;  ///< completion latency under the LatencyModel
    std::uint8_t src1; ///< availability slot of rs1
    std::uint8_t src2; ///< availability slot of rs2
    std::uint8_t dst;  ///< kSinkSlot when the result is untracked
    std::uint8_t mem;  ///< 0 none, 1 load, 2 store
};
static_assert(sizeof(DecodedInstr) == 8, "issue loop wants 8B entries");

/** A trace decoded under one LatencyModel. */
struct DecodedTrace
{
    std::vector<DecodedInstr> instrs; ///< one per record
    /**
     * The memory ops' effective addresses as compact ids, in trace
     * order: a kernel walking the trace in order reads them with a
     * cursor. Ids number the trace's distinct addresses 0..numAddrs-1
     * in order of first use, so per-address state is one dense array
     * whatever the address values are.
     */
    std::vector<std::uint32_t> addrIds;
    std::uint32_t numAddrs = 0; ///< distinct addresses the trace touches

    /** Completion latency of record @p i: the per-run cache-model
     *  load latency when given, else the decoded class latency. */
    std::int32_t
    latency(std::size_t i, const std::vector<int> *load_latencies) const
    {
        const DecodedInstr &d = instrs[i];
        if (d.mem == 1 && load_latencies != nullptr)
            return (*load_latencies)[i];
        return d.lat;
    }
};

/** A predictor's outcomes over a trace's branch paths. */
struct BranchOutcomes
{
    std::vector<std::uint8_t> correct; ///< per path; 1 if no branch
    BitVec64 correctBits;              ///< the same set, packed
    AccuracyReport accuracy;           ///< branches, correct, fraction
    /** Per path: the obs::confidenceBucket of its branch's confidence
     *  after the last branch, which the epilogue charges squashed work
     *  to (0 for a path without a branch). */
    std::vector<std::uint8_t> squashBucket;
    /** 2-bit counter table after the last branch (cached entries). */
    std::vector<std::uint8_t> finalCounters;
};

/**
 * The simulator's predictor pass: runs @p predictor over the branch
 * paths in order (predict, then update) and records each outcome and
 * each branch's squash confidence bucket.
 */
BranchOutcomes predictOutcomes(const Trace &trace,
                               const std::vector<BranchPath> &paths,
                               BranchPredictor &predictor);

/** Trace-only simulation data, shared by every run over one Trace. */
class PreparedTrace
{
  public:
    /**
     * The trace's preparation, built on first use. Thread-safe: racing
     * first uses build it once. The reference stays valid while the
     * trace lives and is not assigned to.
     */
    static const PreparedTrace &of(const Trace &trace);

    /** Segments @p trace; use of() instead. */
    explicit PreparedTrace(const Trace &trace);

    PreparedTrace(const PreparedTrace &) = delete;
    PreparedTrace &operator=(const PreparedTrace &) = delete;

    const std::vector<BranchPath> &paths() const { return paths_; }

    /** endsInBranch per path, packed. */
    const BitVec64 &ends() const { return ends_; }

    /** Static id of each path's exit branch (0 for a path without
     *  one). */
    const std::vector<StaticId> &branchSids() const { return sids_; }

    /** Whether each path's exit branch is backward (a loop latch). */
    const std::vector<std::uint8_t> &backward() const { return backward_; }

    /** The decoded stream under @p latency. */
    const DecodedTrace &decode(const LatencyModel &latency) const;

    /**
     * Dynamic control-dependence scopes: for the branch ending path k,
     * the first dynamic index of its block's immediate postdominator
     * after the branch (trace size when none). @p cfg must be the
     * generating program's graph.
     */
    const std::vector<DynIndex> &joinIndex(const Cfg &cfg) const;

    /** Outcomes of a power-on TwoBitPredictor of @p num_static
     *  entries, with its final counter table. */
    const BranchOutcomes &twoBitOutcomes(std::uint32_t num_static) const;

  private:
    const Trace &trace_;
    std::vector<BranchPath> paths_;
    BitVec64 ends_;
    std::vector<StaticId> sids_;
    std::vector<std::uint8_t> backward_;

    mutable std::mutex mutex_;
    /** Keyed by (intAlu, load, store, branch, other); guarded. */
    mutable std::map<std::array<int, 5>, DecodedTrace> decodes_;
    /** Keyed by Cfg::serial(); guarded. */
    mutable std::map<std::uint64_t, std::vector<DynIndex>> joins_;
    /** Keyed by 2-bit table size; guarded. */
    mutable std::map<std::uint32_t, BranchOutcomes> outcomes_;
};

} // namespace dee

#endif // DEE_CORE_SIM_PREPARED_TRACE_HH
