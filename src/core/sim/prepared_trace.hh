/**
 * @file
 * Per-trace simulation preparation, done once per trace instead of once
 * per simulated cell.
 *
 * Figure 5 sweeps seven window models x six E_T over each benchmark
 * trace, and step 1 of the static-tree heuristic measures the
 * predictor's characteristic accuracy p once per benchmark. Everything
 * a simulation derives from the trace alone is therefore built on the
 * first simulation that touches a Trace and shared, read-only, by every
 * later one, on any thread.
 *
 * One forward sweep over the records builds the branch paths (with
 * each exit branch's static id, direction and backward flag), the
 * packed latency-free decode with compact address ids, and — when the
 * first caller passes the generating program's Cfg — the
 * control-dependence join index. Later keys read no records: the
 * predictor outcomes run over the per-path static ids and directions,
 * and only a Cfg other than the first one re-reads the records' blocks.
 *
 * Cache keys: the join index by Cfg::serial(), the predictor outcomes
 * by the 2-bit table size (the predictor is reset before every run, so
 * the size fixes every prediction). The decode has no key: it stores
 * each record's OpClass, and the kernels turn classes into latencies
 * through a per-run LatencyTable (per-run cache-model load latencies
 * stay an override the kernels read directly). Lifetime: the Trace
 * owns its PreparedTrace (Trace::prepared); copies of a trace start
 * unprepared. Editing a trace's records after it was simulated needs a
 * fresh Trace.
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

/** Completion latency per OpClass, indexed by the class's value. */
using LatencyTable = std::array<std::int32_t, 8>;
static_assert(static_cast<std::size_t>(OpClass::Nop) <
                  std::tuple_size<LatencyTable>::value,
              "every OpClass indexes the latency table");

/** @p latency as a class-indexed table (LatencyModel::of per class). */
LatencyTable latencyTable(const LatencyModel &latency);

/** Whether instructions of class @p cls access memory. */
constexpr bool
accessesMemory(OpClass cls)
{
    return cls == OpClass::Load || cls == OpClass::Store;
}

/**
 * Packed decoded instruction: the fast kernels' entire working set per
 * instruction (plus DecodedTrace::addrIds for memory ops). Latency is
 * not part of it: a kernel reads its run's LatencyTable by class.
 */
struct DecodedInstr
{
    OpClass cls;       ///< operation class
    std::uint8_t src1; ///< availability slot of rs1
    std::uint8_t src2; ///< availability slot of rs2
    std::uint8_t dst;  ///< kSinkSlot when the result is untracked
};
static_assert(sizeof(DecodedInstr) == 4, "issue loop wants 4B entries");

/** A trace decoded for the fast kernels. */
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
     *  load latency when given, else its class's entry of @p table. */
    std::int32_t
    latency(std::size_t i, const LatencyTable &table,
            const std::vector<int> *load_latencies) const
    {
        const OpClass cls = instrs[i].cls;
        if (cls == OpClass::Load && load_latencies != nullptr)
            return (*load_latencies)[i];
        return table[static_cast<std::size_t>(cls)];
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
    /**
     * num_paths + 1 entries: for each path k, the first path >= k a
     * coverage walk cannot step across (one without a branch, or
     * mispredicted); num_paths when there is none. The fast kernel's
     * closed-form walk reads it.
     */
    std::vector<std::uint32_t> nextUncrossable;
    /** 2-bit counter table after the last branch (cached entries). */
    std::vector<std::uint8_t> finalCounters;
};

class PreparedTrace;

/**
 * The simulator's predictor pass: runs @p predictor over the prepared
 * branch paths in order (predict, then update) and records each
 * outcome and each branch's squash confidence bucket. Reads no trace
 * records.
 */
BranchOutcomes predictOutcomes(const PreparedTrace &prepared,
                               BranchPredictor &predictor);

/**
 * measureAccuracy() over the prepared branch paths: the same
 * predict-then-update sequence and the same report, from the pass
 * predictOutcomes() runs. Publishes nothing (see publishAccuracy()).
 */
AccuracyReport measurePreparedAccuracy(const PreparedTrace &prepared,
                                       BranchPredictor &predictor);

/** Trace-only simulation data, shared by every run over one Trace. */
class PreparedTrace
{
  public:
    /**
     * The trace's preparation, built on first use. Thread-safe: racing
     * first uses build it once. When the first use passes @p cfg (the
     * generating program's graph), its join index is built in the same
     * sweep. The reference stays valid while the trace lives and is
     * not assigned to.
     */
    static const PreparedTrace &of(const Trace &trace,
                                   const Cfg *cfg = nullptr);

    /** Sweeps @p trace once (with @p cfg's join index when non-null);
     *  use of() instead. */
    PreparedTrace(const Trace &trace, const Cfg *cfg);

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

    /** Whether each path's exit branch was taken (0 without one). */
    const std::vector<std::uint8_t> &taken() const { return taken_; }

    /** Static instruction count of the trace's program. */
    std::uint32_t numStatic() const { return trace_.numStatic; }

    /** The decoded stream. */
    const DecodedTrace &decode() const { return decoded_; }

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
    std::vector<std::uint8_t> taken_;
    DecodedTrace decoded_;

    mutable std::mutex mutex_;
    /** Keyed by Cfg::serial(); guarded. */
    mutable std::map<std::uint64_t, std::vector<DynIndex>> joins_;
    /** Keyed by 2-bit table size; guarded. */
    mutable std::map<std::uint32_t, BranchOutcomes> outcomes_;
};

} // namespace dee

#endif // DEE_CORE_SIM_PREPARED_TRACE_HH
