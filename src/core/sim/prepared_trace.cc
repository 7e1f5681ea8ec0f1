#include "core/sim/prepared_trace.hh"

#include <cstdint>
#include <memory>
#include <utility>

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

/** OpClass of every opcode byte, so the sweep classifies a record
 *  with one load instead of opClass()'s switch. */
constexpr std::array<OpClass, 256> kClassOf = [] {
    std::array<OpClass, 256> table{};
    for (std::size_t k = 0; k < table.size(); ++k)
        table[k] = opClass(static_cast<Opcode>(k));
    return table;
}();

/**
 * Numbers distinct addresses 0, 1, 2, ... in order of first use: an
 * open-addressing table (linear probing, power-of-two size, at most
 * half full) over a Fibonacci hash of the address.
 */
class AddressIds
{
  public:
    AddressIds() { resize(kInitialBits); }

    /** Distinct addresses numbered so far. */
    std::uint32_t size() const { return size_; }

    /** @p addr's id, numbering it next if it is new. */
    std::uint32_t
    idOf(std::uint64_t addr)
    {
        for (std::size_t h = home(addr);; h = (h + 1) & mask_) {
            Slot &slot = slots_[h];
            if (slot.id == kEmpty)
                return insert(slot, addr);
            if (slot.addr == addr)
                return slot.id;
        }
    }

  private:
    struct Slot
    {
        std::uint64_t addr;
        std::uint32_t id;
    };
    static constexpr std::uint32_t kEmpty = UINT32_MAX;
    static constexpr unsigned kInitialBits = 10; ///< 1024 slots

    std::size_t
    home(std::uint64_t addr) const
    {
        return static_cast<std::size_t>(
            (addr * 0x9e3779b97f4a7c15ULL) >> (64 - bits_));
    }

    std::uint32_t
    insert(Slot &slot, std::uint64_t addr)
    {
        dee_assert(size_ < kEmpty,
                   "trace touches over 2^32 distinct addresses");
        slot = Slot{addr, size_};
        ++size_;
        if (2 * static_cast<std::size_t>(size_) > slots_.size()) {
            std::vector<Slot> old = std::move(slots_);
            resize(bits_ + 1);
            for (const Slot &s : old) {
                if (s.id == kEmpty)
                    continue;
                std::size_t h = home(s.addr);
                while (slots_[h].id != kEmpty)
                    h = (h + 1) & mask_;
                slots_[h] = s;
            }
        }
        return size_ - 1;
    }

    void
    resize(unsigned bits)
    {
        slots_.assign(std::size_t{1} << bits, Slot{0, kEmpty});
        mask_ = slots_.size() - 1;
        bits_ = bits;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned bits_ = 0;
    std::uint32_t size_ = 0;
};

/**
 * The join index, built forward: the branch ending each path waits on
 * its block's immediate postdominator, and the first later record in
 * that block is the join of every branch waiting there. A block's
 * waiters are a list threaded through their own join entries until the
 * block shows up; branches still waiting at the end never join (trace
 * size).
 */
class JoinSweep
{
  public:
    JoinSweep(const Cfg &cfg, DynIndex size)
        : cfg_(cfg), size_(size), waiting_(cfg.numBlocks() + 1, kNone)
    {
    }

    /** Record @p i lies in @p block: the join of its waiters. (A block
     *  the graph does not know has none.) */
    void
    visit(DynIndex i, BlockId block)
    {
        if (block < waiting_.size() && waiting_[block] != kNone)
            resolve(waiting_[block], i);
    }

    /** The next path ends in a branch in @p block (call after visiting
     *  the branch: a branch's block never joins at itself). */
    void
    branchPath(BlockId block)
    {
        const BlockId ipdom = cfg_.ipostdom(block);
        if (ipdom < cfg_.numBlocks()) {
            join_.push_back(waiting_[ipdom]);
            waiting_[ipdom] = join_.size() - 1;
        } else {
            join_.push_back(size_);
        }
    }

    /** The next path is the trace's last and ends without a branch. */
    void lastPath() { join_.push_back(size_); }

    /** The index: one entry per path. */
    std::vector<DynIndex>
    finish() &&
    {
        for (std::uint64_t &head : waiting_)
            resolve(head, size_);
        return std::move(join_);
    }

  private:
    static constexpr std::uint64_t kNone = UINT64_MAX;

    /** Sets the join of every waiter on the list at @p head to @p at
     *  and empties the list. */
    void
    resolve(std::uint64_t &head, DynIndex at)
    {
        for (std::uint64_t k = head; k != kNone;) {
            const std::uint64_t next = join_[k];
            join_[k] = at;
            k = next;
        }
        head = kNone;
    }

    const Cfg &cfg_;
    DynIndex size_;
    /** Per block: the last path waiting on it, or kNone. */
    std::vector<std::uint64_t> waiting_;
    /** Per path: its join once known, else the next waiter. */
    std::vector<DynIndex> join_;
};

/** The join sink of a sweep without a Cfg. */
struct NoJoin
{
    void visit(DynIndex, BlockId) {}
    void branchPath(BlockId) {}
    void lastPath() {}
};

/**
 * The one forward sweep over @p trace's records: branch paths with
 * their exit branches' static ids, backward flags and directions, the
 * decode with address ids, and whatever @p join collects.
 */
template <typename Join>
void
sweepRecords(const Trace &trace, Join &join, std::vector<BranchPath> &paths,
             std::vector<StaticId> &sids, std::vector<std::uint8_t> &backward,
             std::vector<std::uint8_t> &taken, DecodedTrace &decoded)
{
    const auto &records = trace.records;
    const DynIndex n = records.size();
    decoded.instrs.reserve(n);
    AddressIds ids;
    DynIndex begin = 0;
    for (DynIndex i = 0; i < n; ++i) {
        const TraceRecord &rec = records[i];
        const OpClass cls = kClassOf[static_cast<std::uint8_t>(rec.op)];
        decoded.instrs.push_back(DecodedInstr{
            cls, srcSlot(rec.rs1), srcSlot(rec.rs2), dstSlot(rec.rd)});
        if (accessesMemory(cls))
            decoded.addrIds.push_back(ids.idOf(rec.memAddr));
        join.visit(i, rec.block);
        if (rec.isBranch) {
            paths.push_back(BranchPath{begin, i + 1, true});
            sids.push_back(rec.sid);
            backward.push_back(rec.backward ? 1 : 0);
            taken.push_back(rec.taken ? 1 : 0);
            join.branchPath(rec.block);
            begin = i + 1;
        }
    }
    if (begin < n) {
        paths.push_back(BranchPath{begin, n, false});
        sids.push_back(0);
        backward.push_back(0);
        taken.push_back(0);
        join.lastPath();
    }
    decoded.numAddrs = ids.size();
}

/** The join index of @p trace (whose paths end with a branch-less one
 *  iff @p trailing_path) under a Cfg its sweep did not have. */
std::vector<DynIndex>
joinIndexOf(const Trace &trace, const Cfg &cfg, bool trailing_path)
{
    const auto &records = trace.records;
    JoinSweep join(cfg, records.size());
    for (DynIndex i = 0; i < records.size(); ++i) {
        join.visit(i, records[i].block);
        if (records[i].isBranch)
            join.branchPath(records[i].block);
    }
    if (trailing_path)
        join.lastPath();
    return std::move(join).finish();
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
 * Runs @p predictor over the branches ending the prepared paths, in
 * trace order (predict, then update), calling @p visit(k, right) for
 * each such path k. Returns the accuracy over them.
 */
template <typename Visit>
AccuracyReport
replayBranches(const PreparedTrace &prepared, BranchPredictor &predictor,
               Visit &&visit)
{
    AccuracyReport report;
    // The 2-bit predictor (every figure cell) devirtualizes into one
    // inlined table access per branch.
    TwoBitPredictor *const twobit =
        dynamic_cast<TwoBitPredictor *>(&predictor);
    prepared.ends().forEachSet([&](std::size_t k) {
        const BranchQuery q{prepared.branchSids()[k],
                            prepared.backward()[k] != 0,
                            prepared.taken()[k] != 0};
        bool predicted;
        if (twobit != nullptr) {
            predicted = twobit->predictThenUpdate(q.sid, q.actual);
        } else {
            predicted = predictor.predict(q);
            predictor.update(q, q.actual);
        }
        const bool right = predicted == q.actual;
        ++report.branches;
        report.correct += right ? 1 : 0;
        visit(k, right);
    });
    if (report.branches > 0) {
        report.accuracy = static_cast<double>(report.correct) /
                          static_cast<double>(report.branches);
    }
    return report;
}

} // namespace

LatencyTable
latencyTable(const LatencyModel &latency)
{
    LatencyTable table{};
    for (std::size_t c = 0; c < table.size(); ++c)
        table[c] = latency.of(static_cast<OpClass>(c));
    return table;
}

BranchOutcomes
predictOutcomes(const PreparedTrace &prepared, BranchPredictor &predictor)
{
    const std::vector<BranchPath> &paths = prepared.paths();
    const std::vector<StaticId> &sids = prepared.branchSids();
    const std::size_t num_paths = paths.size();
    dee_assert(num_paths < UINT32_MAX, "trace has over 2^32 paths");
    BranchOutcomes out;
    out.correct.assign(num_paths, 1);
    ConfidenceEstimator confidence(prepared.numStatic());
    out.accuracy = replayBranches(prepared, predictor,
                                  [&](std::size_t k, bool right) {
                                      out.correct[k] = right ? 1 : 0;
                                      confidence.record(sids[k], right);
                                  });
    // One backward pass: the packed correct set, the squash buckets
    // (squashed work is charged to the bucket of the branch's
    // confidence at the end of the run) and the first uncrossable path.
    out.correctBits = BitVec64(num_paths);
    out.squashBucket.assign(num_paths, 0);
    std::vector<std::uint32_t> &nm = out.nextUncrossable;
    nm.resize(num_paths + 1);
    nm[num_paths] = static_cast<std::uint32_t>(num_paths);
    for (std::size_t k = num_paths; k-- > 0;) {
        const bool ends = paths[k].endsInBranch;
        if (out.correct[k] != 0)
            out.correctBits.set(k);
        if (ends) {
            out.squashBucket[k] = static_cast<std::uint8_t>(
                obs::confidenceBucket(confidence.estimate(sids[k])));
        }
        nm[k] = (ends && out.correct[k] != 0)
                    ? nm[k + 1]
                    : static_cast<std::uint32_t>(k);
    }
    return out;
}

AccuracyReport
measurePreparedAccuracy(const PreparedTrace &prepared,
                        BranchPredictor &predictor)
{
    return replayBranches(prepared, predictor, [](std::size_t, bool) {});
}

const PreparedTrace &
PreparedTrace::of(const Trace &trace, const Cfg *cfg)
{
    PreparedSlot &slot = trace.prepared;
    const std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.prepared == nullptr) {
        timedBuild([&] {
            slot.prepared = std::make_shared<const PreparedTrace>(trace, cfg);
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

PreparedTrace::PreparedTrace(const Trace &trace, const Cfg *cfg)
    : trace_(trace)
{
    if (cfg != nullptr) {
        JoinSweep join(*cfg, trace.size());
        sweepRecords(trace, join, paths_, sids_, backward_, taken_,
                     decoded_);
        joins_.emplace(cfg->serial(), std::move(join).finish());
    } else {
        NoJoin none;
        sweepRecords(trace, none, paths_, sids_, backward_, taken_,
                     decoded_);
    }
    ends_ = BitVec64(paths_.size());
    for (std::size_t k = 0; k < paths_.size(); ++k)
        if (paths_[k].endsInBranch)
            ends_.set(k);
}

const std::vector<DynIndex> &
PreparedTrace::joinIndex(const Cfg &cfg) const
{
    return lookupOrBuild(mutex_, joins_, cfg.serial(), [&] {
        return joinIndexOf(trace_, cfg,
                           !paths_.empty() && !paths_.back().endsInBranch);
    });
}

const BranchOutcomes &
PreparedTrace::twoBitOutcomes(std::uint32_t num_static) const
{
    return lookupOrBuild(mutex_, outcomes_, num_static, [&] {
        TwoBitPredictor predictor(num_static);
        BranchOutcomes out = predictOutcomes(*this, predictor);
        out.finalCounters = predictor.counters();
        return out;
    });
}

} // namespace dee
