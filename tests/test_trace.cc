/**
 * @file
 * Unit tests for src/trace: path segmentation, statistics, and the
 * binary trace file round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <string>

#include <unistd.h>

#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace dee
{
namespace
{

TraceRecord
alu(StaticId sid)
{
    TraceRecord r;
    r.sid = sid;
    r.op = Opcode::Add;
    r.rd = 1;
    r.rs1 = 2;
    r.rs2 = 3;
    return r;
}

TraceRecord
branch(StaticId sid, bool taken, bool backward = false)
{
    TraceRecord r;
    r.sid = sid;
    r.op = Opcode::BranchEq;
    r.rs1 = 1;
    r.rs2 = 2;
    r.isBranch = true;
    r.taken = taken;
    r.backward = backward;
    return r;
}

Trace
sampleTrace()
{
    Trace t;
    t.numStatic = 10;
    t.records = {alu(0), alu(1), branch(2, true),  // path 0
                 alu(3), branch(4, false),         // path 1
                 alu(5), alu(6)};                  // trailing path
    return t;
}

TEST(SegmentPaths, SplitsAtBranches)
{
    const Trace t = sampleTrace();
    const auto paths = segmentPaths(t);
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_EQ(paths[0].begin, 0u);
    EXPECT_EQ(paths[0].end, 3u);
    EXPECT_TRUE(paths[0].endsInBranch);
    EXPECT_EQ(paths[0].branchIndex(), 2u);
    EXPECT_EQ(paths[1].size(), 2u);
    EXPECT_TRUE(paths[1].endsInBranch);
    EXPECT_EQ(paths[2].size(), 2u);
    EXPECT_FALSE(paths[2].endsInBranch);
}

TEST(SegmentPaths, EmptyTrace)
{
    Trace t;
    EXPECT_TRUE(segmentPaths(t).empty());
}

TEST(SegmentPaths, AllBranches)
{
    Trace t;
    t.records = {branch(0, true), branch(1, false), branch(2, true)};
    const auto paths = segmentPaths(t);
    ASSERT_EQ(paths.size(), 3u);
    for (const auto &p : paths) {
        EXPECT_EQ(p.size(), 1u);
        EXPECT_TRUE(p.endsInBranch);
    }
}

TEST(SegmentPaths, CoverageIsExactPartition)
{
    const Trace t = sampleTrace();
    const auto paths = segmentPaths(t);
    DynIndex expect_begin = 0;
    for (const auto &p : paths) {
        EXPECT_EQ(p.begin, expect_begin);
        expect_begin = p.end;
    }
    EXPECT_EQ(expect_begin, t.records.size());
}

TEST(TraceStats, Counts)
{
    Trace t = sampleTrace();
    TraceRecord load;
    load.op = Opcode::Load;
    load.memAddr = 8;
    t.records.push_back(load);
    TraceRecord store;
    store.op = Opcode::Store;
    store.memAddr = 8;
    t.records.push_back(store);

    const TraceStats s = computeStats(t);
    EXPECT_EQ(s.instructions, 9u);
    EXPECT_EQ(s.condBranches, 2u);
    EXPECT_EQ(s.taken, 1u);
    EXPECT_EQ(s.loads, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_NEAR(s.branchFraction, 2.0 / 9.0, 1e-12);
    EXPECT_NEAR(s.meanPathLength, 4.5, 1e-12);
}

TEST(TraceStats, RenderContainsKeyFields)
{
    const TraceStats s = computeStats(sampleTrace());
    const std::string out = s.render();
    EXPECT_NE(out.find("instructions"), std::string::npos);
    EXPECT_NE(out.find("cond branches"), std::string::npos);
}

class TraceIoTest : public ::testing::Test
{
  protected:
    // ctest runs each case as its own process, possibly in parallel:
    // one file per (test, process) so no two cases share a path.
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "dee_trace_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".bin";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    /** Writes @p t to path_, failing the test on an error. */
    void
    write(const Trace &t)
    {
        std::string err;
        ASSERT_TRUE(writeTrace(t, path_, &err)) << err;
    }

    /** Reads path_ back, failing the test on an error. */
    Trace
    read()
    {
        Trace t;
        std::string err;
        EXPECT_TRUE(readTrace(path_, &t, &err)) << err;
        return t;
    }

    std::string path_;
};

/** Reading @p path must fail with an error containing @p message and
 *  leave the output trace untouched. */
void
expectReadError(const std::string &path, const std::string &message)
{
    Trace t;
    t.numStatic = 77;
    std::string err;
    EXPECT_FALSE(readTrace(path, &t, &err)) << path << " was accepted";
    EXPECT_NE(err.find(message), std::string::npos)
        << "error '" << err << "' lacks '" << message << "'";
    EXPECT_EQ(t.numStatic, 77u);
    EXPECT_TRUE(t.records.empty());
}

TEST_F(TraceIoTest, RoundTripPreservesEverything)
{
    Trace t = sampleTrace();
    t.records[0].memAddr = 0x1234567890abcdefull;
    t.records[2].backward = true;
    write(t);
    const Trace u = read();

    EXPECT_EQ(u.numStatic, t.numStatic);
    ASSERT_EQ(u.records.size(), t.records.size());
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        const auto &a = t.records[i];
        const auto &b = u.records[i];
        EXPECT_EQ(a.sid, b.sid);
        EXPECT_EQ(a.block, b.block);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.rd, b.rd);
        EXPECT_EQ(a.rs1, b.rs1);
        EXPECT_EQ(a.rs2, b.rs2);
        EXPECT_EQ(a.memAddr, b.memAddr);
        EXPECT_EQ(a.isBranch, b.isBranch);
        EXPECT_EQ(a.taken, b.taken);
        EXPECT_EQ(a.backward, b.backward);
    }
}

TEST_F(TraceIoTest, RoundTripEmptyTrace)
{
    Trace t;
    t.numStatic = 3;
    write(t);
    const Trace u = read();
    EXPECT_EQ(u.numStatic, 3u);
    EXPECT_TRUE(u.records.empty());
}

TEST_F(TraceIoTest, LargeTraceRoundTrip)
{
    Trace t;
    t.numStatic = 100;
    for (int i = 0; i < 20000; ++i) {
        TraceRecord r = alu(static_cast<StaticId>(i % 100));
        r.memAddr = static_cast<std::uint64_t>(i) * 977;
        if (i % 7 == 0)
            r = branch(static_cast<StaticId>(i % 100), i % 14 == 0);
        t.records.push_back(r);
    }
    write(t);
    const Trace u = read();
    ASSERT_EQ(u.records.size(), t.records.size());
    for (std::size_t i = 0; i < t.records.size(); i += 997) {
        EXPECT_EQ(u.records[i].sid, t.records[i].sid);
        EXPECT_EQ(u.records[i].memAddr, t.records[i].memAddr);
        EXPECT_EQ(u.records[i].taken, t.records[i].taken);
    }
}

TEST_F(TraceIoTest, RejectsGarbageFile)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is definitely not a DEE trace file at all", f);
    std::fclose(f);
    expectReadError(path_, "not a DEETRAC1");
}

TEST_F(TraceIoTest, RejectsMissingFile)
{
    expectReadError("/nonexistent/nope.bin", "cannot open");
}

TEST_F(TraceIoTest, WriteReportsAnUnopenablePath)
{
    std::string err;
    EXPECT_FALSE(writeTrace(sampleTrace(), "/nonexistent/out.bin", &err));
    EXPECT_NE(err.find("cannot open '/nonexistent/out.bin' for writing"),
              std::string::npos)
        << err;
}

TEST_F(TraceIoTest, RejectsTruncatedFile)
{
    Trace t = sampleTrace();
    write(t);
    // Truncate mid-records.
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    ASSERT_EQ(truncate(path_.c_str(), 30), 0);
    expectReadError(path_, "truncated");
}

/** Overwrites @p bytes at @p offset of an existing file. */
void
patchFile(const std::string &path, long offset,
          std::initializer_list<unsigned char> bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    for (const unsigned char b : bytes)
        ASSERT_NE(std::fputc(b, f), EOF);
    std::fclose(f);
}

// Header: 8 magic + u32 numStatic + u64 count; record i starts at
// 20 + 24 i with sid at +0, op at +8 and rd/rs1/rs2 at +9..+11.
constexpr long kCountAt = 12;
constexpr long
recordAt(long i)
{
    return 20 + 24 * i;
}

TEST_F(TraceIoTest, RejectsCountTheFileCannotHold)
{
    write(sampleTrace());
    // 2^56 records: reserve() would throw length_error or bad_alloc.
    patchFile(path_, kCountAt, {0, 0, 0, 0, 0, 0, 0, 1});
    expectReadError(path_, "truncated: the header claims "
                           "72057594037927936 records");
    // One record more than the file holds.
    patchFile(path_, kCountAt, {8, 0, 0, 0, 0, 0, 0, 0});
    expectReadError(path_, "truncated: the header claims 8 records");
}

TEST_F(TraceIoTest, RejectsOpcodePastNop)
{
    write(sampleTrace());
    patchFile(path_, recordAt(3) + 8,
              {static_cast<unsigned char>(
                  static_cast<int>(Opcode::Nop) + 1)});
    expectReadError(path_, "record 3: opcode 27 out of range");
}

TEST_F(TraceIoTest, RejectsRegisterOutOfRange)
{
    // kNumRegs is the first bad id; kNoReg (0xff) is legal.
    for (const long field : {9L, 10L, 11L}) {
        write(sampleTrace());
        patchFile(path_, recordAt(1) + field, {kNumRegs});
        expectReadError(path_, "record 1: register out of range");
        patchFile(path_, recordAt(1) + field, {0xfe});
        expectReadError(path_, "record 1: register out of range");
        patchFile(path_, recordAt(1) + field, {kNoReg});
        EXPECT_EQ(read().records.size(), 7u);
    }
}

TEST_F(TraceIoTest, RejectsStaticIdPastNumStatic)
{
    write(sampleTrace()); // numStatic 10
    patchFile(path_, recordAt(6), {10, 0, 0, 0});
    expectReadError(path_,
                    "record 6: static id 10 out of range (numStatic 10)");
    patchFile(path_, recordAt(6), {9, 0, 0, 0});
    EXPECT_EQ(read().records[6].sid, 9u);
}

} // namespace
} // namespace dee
