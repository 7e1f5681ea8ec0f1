/**
 * @file
 * Dynamic instruction traces and branch-path segmentation.
 *
 * The ILP models of Section 5 are trace driven: the simulator walks the
 * *actual* dynamic instruction stream (wrong-path work never appears; it
 * costs only time). A TraceRecord carries exactly what the timing models
 * need: the static instruction identity (for predictors / CFG lookups),
 * register operands (for flow dependencies), the effective memory address
 * (for memory flow dependencies), and branch outcomes.
 *
 * A branch path — the unit in which the paper counts resources — is "the
 * dynamic code between branches, including the exit branch"
 * (Section 1.2/2). segmentPaths() splits a trace accordingly.
 */

#ifndef DEE_TRACE_TRACE_HH
#define DEE_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace dee
{

/** One dynamic instruction. */
struct TraceRecord
{
    StaticId sid = 0;        ///< Static instruction id.
    BlockId block = 0;       ///< Containing basic block.
    Opcode op = Opcode::Nop; ///< Operation.
    RegId rd = kNoReg;       ///< Destination register or kNoReg.
    RegId rs1 = kNoReg;      ///< First source or kNoReg.
    RegId rs2 = kNoReg;      ///< Second source or kNoReg.
    bool isBranch = false;   ///< Conditional branch?
    bool taken = false;      ///< Branch outcome (valid if isBranch).
    bool backward = false;   ///< Branch target is an earlier block
                             ///  (loop latch) — valid if isBranch.
    std::uint64_t memAddr = 0; ///< Effective address (loads/stores).
};

// Traces are the largest structure in a run: the flags sit in what
// would otherwise be padding before memAddr.
static_assert(sizeof(TraceRecord) == 24, "TraceRecord is 24 bytes");

/** Index of a dynamic instruction within a trace. */
using DynIndex = std::uint64_t;

/** Defined in core/sim/prepared_trace.hh. */
class PreparedTrace;

/**
 * Where a Trace keeps its simulation-side preparation (paths, decode,
 * join index, predictor outcomes; see core/sim/prepared_trace.hh),
 * built on the first simulation that touches the trace. It belongs to
 * one Trace object: a copy or move of the trace starts unprepared, and
 * assigning to a trace drops what it had prepared.
 */
class PreparedSlot
{
  public:
    PreparedSlot() = default;
    PreparedSlot(const PreparedSlot &) noexcept {}
    PreparedSlot &
    operator=(const PreparedSlot &)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        prepared.reset();
        return *this;
    }

    std::mutex mutex;
    std::shared_ptr<const PreparedTrace> prepared; ///< guarded by mutex
};

/**
 * A dynamic instruction stream plus the static-side sizes it indexes.
 * Simulating a trace prepares it once; editing `records` afterwards
 * needs a fresh Trace (a copy), never the simulated object.
 */
struct Trace
{
    std::vector<TraceRecord> records;
    /** Static instruction count of the generating program. */
    std::uint32_t numStatic = 0;
    /** Lazily prepared simulation data (never copied with the trace). */
    mutable PreparedSlot prepared;

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }
    const TraceRecord &operator[](DynIndex i) const { return records[i]; }
};

/**
 * One branch path: records [begin, end) of the trace; the last record is
 * the exit conditional branch except possibly for the final path.
 */
struct BranchPath
{
    DynIndex begin = 0;
    DynIndex end = 0; ///< one past the last record
    bool endsInBranch = false;

    DynIndex size() const { return end - begin; }
    /** Index of the exit branch (only valid if endsInBranch). */
    DynIndex branchIndex() const { return end - 1; }
};

/** Splits a trace into branch paths at every conditional branch. */
std::vector<BranchPath> segmentPaths(const Trace &trace);

/** Reuse-friendly overload: clears and refills @p paths in place. */
void segmentPaths(const Trace &trace, std::vector<BranchPath> &paths);

/** Aggregate statistics over a trace. */
struct TraceStats
{
    std::uint64_t instructions = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t taken = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t jumps = 0;
    double branchFraction = 0.0;  ///< cond branches / instructions
    double meanPathLength = 0.0;  ///< instructions per branch path

    std::string render() const;
};

/** Computes TraceStats in one pass. */
TraceStats computeStats(const Trace &trace);

} // namespace dee

#endif // DEE_TRACE_TRACE_HH
