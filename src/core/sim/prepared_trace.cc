#include "core/sim/prepared_trace.hh"

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/accounting.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/registry.hh"
#include "obs/timer.hh"

namespace dee
{

namespace
{

inline std::uint8_t
srcSlot(RegId r)
{
    return (r == kNoReg || r == kZeroReg)
               ? static_cast<std::uint8_t>(kZeroSlot)
               : r;
}

inline std::uint8_t
dstSlot(RegId r)
{
    return (r == kNoReg || r == kZeroReg)
               ? static_cast<std::uint8_t>(kSinkSlot)
               : r;
}

/**
 * Per-opcode decode tables: latency and memory class resolved by two
 * array loads instead of a per-record class switch. Values follow
 * LatencyModel::of() exactly.
 */
struct DecodeTables
{
    std::array<std::int32_t, 256> lat;
    std::array<std::uint8_t, 256> mem; ///< 0 none, 1 load, 2 store

    explicit DecodeTables(const LatencyModel &lm)
    {
        for (std::size_t k = 0; k < 256; ++k) {
            const OpClass cls = opClass(static_cast<Opcode>(k));
            lat[k] = lm.of(cls);
            mem[k] = cls == OpClass::Load    ? 1
                     : cls == OpClass::Store ? 2
                                             : 0;
        }
    }
};

DecodedTrace
decodeTrace(const Trace &trace, const LatencyModel &latency)
{
    const auto &records = trace.records;
    DecodedTrace out;
    out.instrs.resize(records.size());
    const DecodeTables tabs(latency);
    // Addresses are numbered in order of first use.
    std::unordered_map<std::uint64_t, std::uint32_t> ids;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        const auto op = static_cast<std::uint8_t>(rec.op);
        DecodedInstr &d = out.instrs[i];
        d.lat = tabs.lat[op];
        d.src1 = srcSlot(rec.rs1);
        d.src2 = srcSlot(rec.rs2);
        d.dst = dstSlot(rec.rd);
        d.mem = tabs.mem[op];
        if (d.mem != 0) {
            const auto [it, fresh] =
                ids.try_emplace(rec.memAddr, out.numAddrs);
            if (fresh) {
                dee_assert(out.numAddrs < UINT32_MAX,
                           "trace touches over 2^32 distinct addresses");
                ++out.numAddrs;
            }
            out.addrIds.push_back(it->second);
        }
    }
    return out;
}

/** Runs one first-touch build: sampled as the prepare phase, timed
 *  and counted under perf.prepare.*. */
template <typename Fn>
void
timedBuild(Fn &&build)
{
    const obs::hotspot::HotspotPhase hot("window",
                                         obs::hotspot::Phase::Prepare);
    obs::Registry &reg = obs::Registry::global();
    {
        const obs::ScopedTimer timer("perf.prepare.build_ms", reg);
        build();
    }
    ++reg.counter("perf.prepare.builds");
}

void
countHit()
{
    ++obs::Registry::global().counter("perf.prepare.hits");
}

/** The entry of @p map at @p key, built by @p build on first use;
 *  @p mutex guards the map. */
template <typename Map, typename Build>
const typename Map::mapped_type &
lookupOrBuild(std::mutex &mutex, Map &map,
              const typename Map::key_type &key, Build &&build)
{
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = map.find(key);
    if (it != map.end()) {
        countHit();
        return it->second;
    }
    timedBuild([&] { it = map.emplace(key, build()).first; });
    return it->second;
}

/**
 * Join index over @p paths: one backward sweep in which next_occ[b] is
 * the first dynamic index of block b strictly after the sweep cursor,
 * so each branch reads its join point in O(1). Paths are pushed after
 * their own branch is queried — a branch's block never joins at
 * itself.
 */
std::vector<DynIndex>
joinIndexOf(const Trace &trace, const std::vector<BranchPath> &paths,
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

} // namespace

BranchOutcomes
predictOutcomes(const Trace &trace, const std::vector<BranchPath> &paths,
                BranchPredictor &predictor)
{
    const auto &records = trace.records;
    const std::size_t num_paths = paths.size();
    BranchOutcomes out;
    out.correct.assign(num_paths, 1);
    out.correctBits = BitVec64(num_paths);
    ConfidenceEstimator confidence(trace.numStatic);
    std::vector<StaticId> sids(num_paths, 0);
    // The 2-bit predictor (every figure cell) devirtualizes into one
    // inlined table access per branch.
    TwoBitPredictor *const twobit =
        dynamic_cast<TwoBitPredictor *>(&predictor);
    for (std::size_t k = 0; k < num_paths; ++k) {
        if (!paths[k].endsInBranch) {
            out.correctBits.set(k);
            continue;
        }
        const TraceRecord &b = records[paths[k].branchIndex()];
        sids[k] = b.sid;
        bool predicted;
        if (twobit != nullptr) {
            predicted = twobit->predictThenUpdate(b.sid, b.taken);
        } else {
            BranchQuery q;
            q.sid = b.sid;
            q.actual = b.taken;
            predicted = predictor.predict(q);
            predictor.update(q, b.taken);
        }
        const bool right = predicted == b.taken;
        out.correct[k] = right ? 1 : 0;
        if (right) {
            out.correctBits.set(k);
            ++out.accuracy.correct;
        }
        confidence.record(b.sid, right);
        ++out.accuracy.branches;
    }
    // Squashed work is charged to the bucket of the branch's confidence
    // at the end of the run.
    out.squashBucket.assign(num_paths, 0);
    for (std::size_t k = 0; k < num_paths; ++k) {
        if (paths[k].endsInBranch) {
            out.squashBucket[k] = static_cast<std::uint8_t>(
                obs::confidenceBucket(confidence.estimate(sids[k])));
        }
    }
    if (out.accuracy.branches > 0) {
        out.accuracy.accuracy =
            static_cast<double>(out.accuracy.correct) /
            static_cast<double>(out.accuracy.branches);
    }
    return out;
}

const PreparedTrace &
PreparedTrace::of(const Trace &trace)
{
    PreparedSlot &slot = trace.prepared;
    const std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.prepared == nullptr) {
        timedBuild([&] {
            slot.prepared = std::make_shared<const PreparedTrace>(trace);
        });
    } else {
        countHit();
    }
    const PreparedTrace &prep = *slot.prepared;
    dee_assert(
        prep.paths_.empty() ? trace.records.empty()
                            : prep.paths_.back().end == trace.size(),
        "trace records changed after the trace was simulated; simulate "
        "a fresh copy instead");
    return prep;
}

PreparedTrace::PreparedTrace(const Trace &trace)
    : trace_(trace), paths_(segmentPaths(trace))
{
    const std::size_t num_paths = paths_.size();
    ends_ = BitVec64(num_paths);
    sids_.assign(num_paths, 0);
    backward_.assign(num_paths, 0);
    for (std::size_t k = 0; k < num_paths; ++k) {
        if (paths_[k].endsInBranch) {
            const TraceRecord &b = trace.records[paths_[k].branchIndex()];
            // The fast kernel takes a path's last issue as its branch's.
            DEE_INVARIANT(b.isBranch, "path ", k,
                          " does not end in its branch");
            ends_.set(k);
            sids_[k] = b.sid;
            backward_[k] = b.backward ? 1 : 0;
        }
    }
}

const DecodedTrace &
PreparedTrace::decode(const LatencyModel &latency) const
{
    const std::array<int, 5> key{latency.intAlu, latency.load,
                                 latency.store, latency.branch,
                                 latency.other};
    return lookupOrBuild(mutex_, decodes_, key,
                         [&] { return decodeTrace(trace_, latency); });
}

const std::vector<DynIndex> &
PreparedTrace::joinIndex(const Cfg &cfg) const
{
    return lookupOrBuild(mutex_, joins_, cfg.serial(), [&] {
        return joinIndexOf(trace_, paths_, cfg);
    });
}

const BranchOutcomes &
PreparedTrace::twoBitOutcomes(std::uint32_t num_static) const
{
    return lookupOrBuild(mutex_, outcomes_, num_static, [&] {
        TwoBitPredictor predictor(num_static);
        BranchOutcomes out = predictOutcomes(trace_, paths_, predictor);
        out.finalCounters = predictor.counters();
        return out;
    });
}

} // namespace dee
