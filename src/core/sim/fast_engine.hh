/**
 * @file
 * Data-oriented fast simulation engine (PR 10's tentpole).
 *
 * Same semantics as the seed engine, restructured for the host machine:
 *
 *  - Read the trace's prepared packed instruction stream
 *    (core/sim/prepared_trace.hh), so the issue loop touches 4-byte
 *    decoded entries instead of 24-byte trace records and reads each
 *    class's latency from a per-run 8-entry table instead of calling
 *    opClass()/LatencyModel::of().
 *  - Register dataflow through a flat availability table (completion
 *    time of the last writer per architectural register, with an
 *    always-zero slot standing in for "no dependence" so the inner
 *    loop is branch-free on the register path).
 *  - Memory dataflow through one dense table indexed by the prepared
 *    compact address ids (DecodedTrace::addrIds), whatever the address
 *    values — replacing the per-access node-allocating unordered_map.
 *  - No per-instruction output: the branch's issue cycle is a local
 *    (a path's branch is its last record), issue counts go straight
 *    into the per-cycle ledger, and the run's length is the root's
 *    last move. Branch static ids and directions come prepared per
 *    path, so the kernel never reads a trace record.
 *  - Tree moves over the FlatSpecTree array view; per-path correctness
 *    and mispredict sets live in BitVec64 words (common/bit_matrix.hh)
 *    scanned with popcount/ctz in the shared epilogue.
 *  - Route-B mispredict stalls via a per-path sorted suffix-max over
 *    pending join points with a monotone cursor, replacing the
 *    per-instruction scan of the whole pending deque.
 *  - Scratch (walk state, stall tables, bypass spans) is hoisted into
 *    per-run arenas reused across every tree move.
 *
 * fastForward() is declared in forward_pass.hh next to its reference
 * twin; both are provably bit-exact (tests/test_engine_differential.cc).
 */

#ifndef DEE_CORE_SIM_FAST_ENGINE_HH
#define DEE_CORE_SIM_FAST_ENGINE_HH

#include <cstdint>

#include "core/sim/forward_pass.hh"
#include "core/sim/prepared_trace.hh"
#include "obs/accounting.hh"

namespace dee::sim_detail
{

/**
 * Dataflow sweep for oracleSim()'s fast engine over the prepared
 * decode under the class latencies @p latency: returns the dataflow-limit completion horizon and, when
 * @p ledger is non-null, issues each instruction's ready cycle into it
 * in trace order — the same evidence the reference engine's separate
 * second pass produces.
 */
std::int64_t fastOracle(const DecodedTrace &decoded,
                        const LatencyTable &latency,
                        const std::vector<int> *load_latencies,
                        obs::SlotLedger *ledger);

} // namespace dee::sim_detail

#endif // DEE_CORE_SIM_FAST_ENGINE_HH
