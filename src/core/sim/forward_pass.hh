/**
 * @file
 * Internal contract between WindowSim::run() and its two forward-pass
 * kernels (the reference engine in window_sim.cc and the data-oriented
 * fast engine in fast_engine.cc).
 *
 * run() owns the shared prologue (reading the trace's PreparedTrace:
 * paths, predictor outcomes, control-dependence join points, decode)
 * and epilogue (totals, resolve histogram, cycle
 * accounting, speculation profile, registry publishing). The kernels
 * own only the per-path forward loop: coverage walks, instruction
 * issue, branch resolution and tree movement. Both fill the same
 * ForwardCtx outputs and make profiler/tracer calls at the same
 * program points in the same order, which is what makes the engines
 * bit-exact — the property tests/test_engine_differential.cc enforces.
 */

#ifndef DEE_CORE_SIM_FORWARD_PASS_HH
#define DEE_CORE_SIM_FORWARD_PASS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bit_matrix.hh"
#include "common/invariant.hh"
#include "core/sim/prepared_trace.hh"
#include "core/sim/window_sim.hh"
#include "obs/accounting.hh"
#include "obs/profile/profile.hh"
#include "obs/trace_event.hh"

namespace dee::sim_detail
{

/** Sentinel "not yet fetched". */
constexpr std::int64_t kNeverFetched =
    std::numeric_limits<std::int64_t>::max();

/**
 * Per-cycle issue slots for the limited-PE extension: claim() finds the
 * earliest cycle >= ready with a free slot and takes it. Shared verbatim
 * between the engines.
 *
 * A waiting instruction skips only full cycles, and a cycle never
 * empties, so every cycle it waits through issues the full width: the
 * window simulator has no spare slot to charge to resource starvation.
 *
 * Occupancy is one dense counter per cycle. Full cycles point forward
 * (next > t) to a later cycle that may be free; find() follows the
 * chain to the first free cycle and compresses it, so a ready time far
 * behind the fill frontier costs amortized near-O(1) instead of one
 * probe per full cycle. Every cycle below the low watermark low_ is
 * full, so a search starts at max(ready, low_). The buffer comes from
 * a thread-local pool, so per-cell instances reuse warmed capacity.
 */
class IssueSlots
{
  public:
    explicit IssueSlots(int width) : width_(width)
    {
        cycles_.swap(pool_);
        cycles_.clear();
    }

    /** Returns the buffer to the pool when it outgrew the pool's. */
    ~IssueSlots()
    {
        if (cycles_.capacity() > pool_.capacity())
            cycles_.swap(pool_);
    }

    IssueSlots(const IssueSlots &) = delete;
    IssueSlots &operator=(const IssueSlots &) = delete;

    std::int64_t
    claim(std::int64_t ready)
    {
        if (width_ == 0)
            return ready;
        DEE_INVARIANT(ready >= 0, "issue slot claimed at cycle ", ready);
        const std::int64_t t = find(std::max(ready, low_));
        const auto c = static_cast<std::size_t>(t);
        if (c >= cycles_.size())
            grow(c);
        if (++cycles_[c].used == width_) {
            cycles_[c].next = t + 1;
            if (t == low_)
                low_ = find(t + 1);
        }
        return t;
    }

  private:
    struct Cycle
    {
        /** == this cycle: it has a free slot; else a later cycle to
         *  search from. */
        std::int64_t next;
        int used; ///< instructions issued
    };

    /** First cycle >= @p t with a free slot (cycles past the end of
     *  the table are all free). */
    std::int64_t
    find(std::int64_t t)
    {
        const auto size = static_cast<std::int64_t>(cycles_.size());
        std::int64_t free = t;
        while (free < size &&
               cycles_[static_cast<std::size_t>(free)].next != free)
            free = cycles_[static_cast<std::size_t>(free)].next;
        // Path compression: every cycle on the chain now points at the
        // free cycle found (all of them lie below it and are full).
        while (t < free && t < size) {
            std::int64_t &link = cycles_[static_cast<std::size_t>(t)].next;
            t = link;
            link = free;
        }
        return free;
    }

    void
    grow(std::size_t c)
    {
        const std::size_t old = cycles_.size();
        cycles_.resize(std::max(c + 1, 2 * old));
        for (std::size_t k = old; k < cycles_.size(); ++k)
            cycles_[k] = {static_cast<std::int64_t>(k), 0};
    }

    int width_;
    std::int64_t low_ = 0; ///< first cycle with a free slot
    std::vector<Cycle> cycles_;
    /** This thread's recycled buffer (empty while an instance holds
     *  it). */
    static inline thread_local std::vector<Cycle> pool_;
};

/** A mispredicted branch still inside the static window's reach. */
struct PendingMispredict
{
    std::uint64_t pathIdx;
    DynIndex joinIdx; ///< End of its dynamic control scope.
    std::int64_t resolveTime;
    /**
     * Backward (loop) branches diverge: the wrong-path fetch stream does
     * not reconverge with the actual path before resolution, so code
     * after the branch is simply absent from the machine unless a
     * not-predicted-edge tree path (EE subtree / DEE side path) holds
     * it. Forward mispredicts reconverge at the join, so only their
     * dynamic control scope stalls.
     */
    bool divergent;
};

/**
 * Reusable per-run output storage. WindowSim::run() keeps one of these
 * per thread and rebinds the ForwardCtx output references to it, so
 * repeated runs (benchmark repetitions, figure sweeps) recycle
 * capacity instead of faulting in fresh pages every run. Both kernels
 * assign()/clear() every vector they touch, so no state leaks between
 * runs.
 */
struct RunArena
{
    std::vector<std::int64_t> fetchTree;
    std::vector<std::int64_t> rootTime;
    std::vector<std::int64_t> resolve;
    std::vector<std::uint8_t> fetchSide;
};

/** Everything a forward-pass kernel reads and everything it must fill. */
struct ForwardCtx
{
    // --- Inputs (borrowed from WindowSim::run) ---------------------------
    const Trace &trace;
    /** The trace's decode (fast engine only). */
    const DecodedTrace &decoded;
    const std::vector<BranchPath> &paths;
    const std::vector<StaticId> &branchSid;     ///< per path (prepared)
    const std::vector<std::uint8_t> &backward;  ///< per path (prepared)
    const SpecTree &tree;
    const SimConfig &config;
    const std::vector<std::uint8_t> &correct; ///< per path; 1 if no branch
    const BitVec64 &correctBits;              ///< same set, packed
    /** First uncrossable path per path (BranchOutcomes). */
    const std::vector<std::uint32_t> &nextUncrossable;
    const BitVec64 &ends;                     ///< endsInBranch per path
    const std::vector<DynIndex> &joinIdx;     ///< empty unless CD
    int windowReach;
    bool profiling;
    bool tracing;
    bool hot;
    obs::Tracer &tracer;
    obs::SpeculationProfile &profile; ///< recordAssignment() target
    /** Per-cycle issue ledger (non-null iff accounting or issue
     *  stats): the kernels record each instruction's issue cycle as it
     *  is computed, in trace order. No per-instruction issue times are
     *  kept: the ledger's per-cycle counts and rootTime are all the
     *  epilogue needs. */
    obs::SlotLedger *ledger;

    // --- Outputs (the epilogue's inputs; arena-backed references) --------
    std::vector<std::int64_t> &fetchTree; ///< per path; kNeverFetched
    /** num_paths + 1 entries; rootTime[num_paths] bounds every
     *  completion (exec + latency) of the run. */
    std::vector<std::int64_t> &rootTime;
    std::vector<std::int64_t> &resolve;   ///< per path
    std::vector<std::uint8_t> &fetchSide; ///< per path iff profiling
    std::uint64_t sidePathFetches = 0;
};

/** The seed forward pass, kept as ground truth (window_sim.cc). */
void referenceForward(ForwardCtx &ctx);

/** The data-oriented SoA / bit-vector kernel (fast_engine.cc). */
void fastForward(ForwardCtx &ctx);

} // namespace dee::sim_detail

#endif // DEE_CORE_SIM_FORWARD_PASS_HH
