/**
 * @file
 * Pieces of the window kernels that both engines share, so the
 * fast-vs-reference differential tests cannot see a bug in them:
 *
 *   - IssueSlots (the limited-PE slot finder) against the plain
 *     cycle-by-cycle claim loop it replaced, kept here as the oracle:
 *     same claimed cycles over seeded random ready times that often
 *     lie far behind the fill frontier, every cycle a claim skipped
 *     full in the issue ledger at the end (which is why the window
 *     simulator charges no resource starvation), and the same claims
 *     from a pooled buffer as from a fresh one;
 *   - the compact address ids of the prepared decode, over a
 *     hand-built trace whose memory ops use address 0, addresses at or
 *     above 2^32 and addresses near UINT64_MAX: the fast engine must
 *     still match the reference (which keys memory by full address)
 *     bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bpred/bpred.hh"
#include "core/sim/forward_pass.hh"
#include "core/sim/prepared_trace.hh"
#include "core/sim/window_sim.hh"
#include "core/tree/spec_tree.hh"
#include "obs/accounting.hh"

namespace dee
{
namespace
{

using sim_detail::IssueSlots;

/** The cycle-by-cycle claim loop: probe each cycle from @p ready on
 *  until one has a free slot, noting every full cycle skipped. */
class NaiveSlots
{
  public:
    explicit NaiveSlots(int width) : width_(width) {}

    std::int64_t
    claim(std::int64_t ready, std::set<std::int64_t> &skipped)
    {
        for (std::int64_t t = ready;; ++t) {
            int &used = used_[t];
            if (used < width_) {
                ++used;
                return t;
            }
            skipped.insert(t);
        }
    }

  private:
    int width_;
    std::unordered_map<std::int64_t, int> used_;
};

/** Seeded ready times: mostly near the frontier of earlier claims,
 *  often far behind it (where the skip chains are long), sometimes
 *  ahead of it. Call next(claimed) after each claim. */
class ReadyStream
{
  public:
    explicit ReadyStream(std::uint64_t seed) : rng_(seed) {}

    std::int64_t
    ready()
    {
        std::int64_t t;
        switch (rng_() % 4) {
          case 0:
            t = frontier_ - static_cast<std::int64_t>(rng_() % 2000);
            break;
          case 1:
            t = frontier_ + static_cast<std::int64_t>(rng_() % 8);
            break;
          default:
            t = frontier_ - static_cast<std::int64_t>(rng_() % 16);
            break;
        }
        return std::max<std::int64_t>(t, 0);
    }

    void
    next(std::int64_t claimed)
    {
        frontier_ = std::max(frontier_, claimed);
    }

  private:
    std::mt19937_64 rng_;
    std::int64_t frontier_ = 0;
};

/** Claims of @p count seeded ready times on a width-@p width table. */
std::vector<std::int64_t>
claimSequence(int width, std::uint64_t seed, int count)
{
    ReadyStream stream(seed);
    IssueSlots slots(width);
    std::vector<std::int64_t> claims;
    for (int k = 0; k < count; ++k) {
        claims.push_back(slots.claim(stream.ready()));
        stream.next(claims.back());
    }
    return claims;
}

TEST(IssueSlots, MatchesNaiveClaimLoop)
{
    for (const int width : {1, 2, 4, 16}) {
        for (std::uint32_t seed = 0; seed < 12; ++seed) {
            const std::string ctx = "width " + std::to_string(width) +
                                    " seed " + std::to_string(seed);
            ReadyStream stream(seed * 7919 + width);
            NaiveSlots naive(width);
            IssueSlots slots(width);
            // The window simulator's ledger sees every claim.
            obs::SlotLedger ledger(static_cast<std::uint64_t>(width));
            std::set<std::int64_t> skipped;
            for (int k = 0; k < 4000; ++k) {
                const std::int64_t ready = stream.ready();
                const std::int64_t want = naive.claim(ready, skipped);
                const std::int64_t got = slots.claim(ready);
                ASSERT_EQ(got, want) << ctx << " claim " << k
                                     << " ready " << ready;
                ledger.issue(got);
                stream.next(got);
            }
            // Cycles never empty, so every cycle a claim skipped is
            // full at the end: a ResourceStarved mark there would
            // charge no spare slot.
            EXPECT_FALSE(skipped.empty()) << ctx;
            const std::vector<std::uint32_t> &issued =
                ledger.issuedPerCycle();
            for (const std::int64_t t : skipped) {
                ASSERT_LT(static_cast<std::size_t>(t), issued.size())
                    << ctx;
                EXPECT_EQ(issued[static_cast<std::size_t>(t)],
                          static_cast<std::uint32_t>(width))
                    << ctx << " cycle " << t;
            }
        }
    }
}

TEST(IssueSlots, PooledBuffersClaimLikeFreshOnes)
{
    // A long sequence leaves a large, fully written buffer in this
    // thread's pool; a short sequence that adopts it must claim as it
    // does on a thread whose pool is empty.
    for (const int width : {1, 4}) {
        const std::string ctx = "width " + std::to_string(width);
        std::vector<std::int64_t> fresh;
        std::thread([&] { fresh = claimSequence(width, 99, 300); })
            .join();
        (void)claimSequence(width, 7, 20'000);
        EXPECT_EQ(claimSequence(width, 99, 300), fresh) << ctx;
    }
}

TEST(IssueSlots, UnlimitedWidthIssuesAtReady)
{
    IssueSlots slots(0);
    for (const std::int64_t ready : {5, 5, 5, 0, 1000})
        EXPECT_EQ(slots.claim(ready), ready);
}

// ------------------------------------------- sparse, huge addresses

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/** Addresses a dense table over raw values could never hold, and pairs
 *  that agree in their low 32 bits. */
const std::vector<std::uint64_t> kAddrs = {
    0,
    8,
    std::uint64_t{1} << 32,
    (std::uint64_t{1} << 32) + 8,
    std::uint64_t{0xdeadbeef} << 24,
    kMax - 7,
    kMax,
};

/**
 * A trace of straight-line blocks ending in conditional branches, with
 * loads and stores over kAddrs and register chains long enough that a
 * memory dependence wrongly taken or missed moves issue times.
 */
Trace
sparseTrace(std::uint64_t seed, std::size_t records)
{
    std::mt19937_64 rng(seed);
    Trace t;
    t.numStatic = 64;
    BlockId block = 0;
    while (t.records.size() < records) {
        TraceRecord rec;
        rec.block = block;
        switch (rng() % 8) {
          case 0:
          case 1:
            rec.op = Opcode::Load;
            rec.rd = static_cast<RegId>(1 + rng() % 6);
            rec.rs1 = static_cast<RegId>(1 + rng() % 6);
            rec.memAddr = kAddrs[rng() % kAddrs.size()];
            break;
          case 2:
          case 3:
            rec.op = Opcode::Store;
            rec.rs1 = static_cast<RegId>(1 + rng() % 6);
            rec.rs2 = static_cast<RegId>(1 + rng() % 6);
            rec.memAddr = kAddrs[rng() % kAddrs.size()];
            break;
          case 4:
            rec.op = Opcode::BranchEq;
            rec.rs1 = static_cast<RegId>(1 + rng() % 6);
            rec.rs2 = static_cast<RegId>(1 + rng() % 6);
            rec.isBranch = true;
            rec.taken = rng() % 3 != 0;
            rec.backward = rng() % 4 == 0;
            ++block;
            break;
          default:
            rec.op = Opcode::Add;
            rec.rd = static_cast<RegId>(1 + rng() % 6);
            rec.rs1 = static_cast<RegId>(1 + rng() % 6);
            rec.rs2 = static_cast<RegId>(1 + rng() % 6);
            break;
        }
        rec.sid = static_cast<StaticId>(
            rec.isBranch ? 32 + rng() % 8 : rng() % 32);
        t.records.push_back(rec);
    }
    return t;
}

void
expectSame(const SimResult &a, const SimResult &b, const std::string &ctx)
{
    EXPECT_EQ(a.instructions, b.instructions) << ctx;
    EXPECT_EQ(a.cycles, b.cycles) << ctx;
    EXPECT_EQ(a.speedup, b.speedup) << ctx;
    EXPECT_EQ(a.branches, b.branches) << ctx;
    EXPECT_EQ(a.mispredicted, b.mispredicted) << ctx;
    EXPECT_EQ(a.resolveDepthCounts, b.resolveDepthCounts) << ctx;
    EXPECT_EQ(a.sidePathFetches, b.sidePathFetches) << ctx;
    EXPECT_EQ(a.peakIssue, b.peakIssue) << ctx;
    ASSERT_EQ(a.account.valid(), b.account.valid()) << ctx;
    for (std::size_t i = 0; i < obs::kNumSlotClasses; ++i) {
        const auto cls = static_cast<obs::SlotClass>(i);
        EXPECT_EQ(a.account.slots(cls), b.account.slots(cls))
            << ctx << " " << obs::slotClassName(cls);
    }
}

SimResult
runWindow(const Trace &trace, const SpecTree &tree, Engine engine,
          const LatencyModel &latency, const std::vector<int> *load_lat,
          int pe_limit)
{
    SimConfig config;
    config.engine = engine;
    config.latency = latency;
    config.loadLatencies = load_lat;
    config.peLimit = pe_limit;
    config.gatherIssueStats = true;
    config.gatherResolveStats = true;
    TwoBitPredictor pred(trace.numStatic);
    return WindowSim(trace, tree, config).run(pred);
}

TEST(SparseAddresses, CompactIdsNumberTheDistinctAddresses)
{
    const Trace trace = sparseTrace(1, 3000);
    std::set<std::uint64_t> distinct;
    std::vector<std::uint64_t> mem_addrs;
    for (const TraceRecord &rec : trace.records) {
        const OpClass cls = opClass(rec.op);
        if (cls == OpClass::Load || cls == OpClass::Store) {
            distinct.insert(rec.memAddr);
            mem_addrs.push_back(rec.memAddr);
        }
    }
    ASSERT_EQ(distinct.size(), kAddrs.size());
    const DecodedTrace &dec =
        PreparedTrace::of(trace).decode();
    EXPECT_EQ(dec.numAddrs, distinct.size());
    ASSERT_EQ(dec.addrIds.size(), mem_addrs.size());
    // Equal ids exactly for equal addresses.
    std::unordered_map<std::uint32_t, std::uint64_t> addr_of;
    std::unordered_map<std::uint64_t, std::uint32_t> id_of;
    for (std::size_t k = 0; k < mem_addrs.size(); ++k) {
        const std::uint32_t id = dec.addrIds[k];
        ASSERT_LT(id, dec.numAddrs);
        EXPECT_EQ(addr_of.try_emplace(id, mem_addrs[k]).first->second,
                  mem_addrs[k]);
        EXPECT_EQ(id_of.try_emplace(mem_addrs[k], id).first->second, id);
    }
}

TEST(SparseAddresses, FastMatchesReferenceBitExact)
{
    const LatencyModel realistic = LatencyModel::realistic();
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const Trace trace = sparseTrace(seed, 2500);
        // Per-access load latencies that differ by address class.
        std::vector<int> load_lat(trace.size(), 0);
        for (std::size_t i = 0; i < trace.size(); ++i)
            load_lat[i] = trace.records[i].memAddr > (kMax >> 1) ? 9 : 2;
        for (const int e_t : {8, 32}) {
            const std::vector<std::pair<std::string, SpecTree>> trees = {
                {"SP", SpecTree::singlePath(0.9, e_t)},
                {"EE", SpecTree::eager(0.9, e_t)},
                {"DEE", SpecTree::deeStatic(0.9, e_t)},
            };
            for (const auto &[name, tree] : trees) {
                for (const bool with_lat : {false, true}) {
                    for (const int pe : {0, 2}) {
                        const std::string ctx =
                            "seed " + std::to_string(seed) + " " + name +
                            " E_T=" + std::to_string(e_t) +
                            (with_lat ? " loadLatencies" : "") +
                            " PE=" + std::to_string(pe);
                        const std::vector<int> *lat =
                            with_lat ? &load_lat : nullptr;
                        expectSame(runWindow(trace, tree, Engine::Fast,
                                             realistic, lat, pe),
                                   runWindow(trace, tree,
                                             Engine::Reference, realistic,
                                             lat, pe),
                                   ctx);
                    }
                }
            }
        }
        for (const bool with_lat : {false, true}) {
            const std::vector<int> *lat = with_lat ? &load_lat : nullptr;
            expectSame(oracleSim(trace, realistic, lat, true, Engine::Fast),
                       oracleSim(trace, realistic, lat, true,
                                 Engine::Reference),
                       "oracle seed " + std::to_string(seed) +
                           (with_lat ? " loadLatencies" : ""));
        }
    }
}

} // namespace
} // namespace dee
