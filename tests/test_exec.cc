/**
 * @file
 * Unit tests for src/exec: ALU/branch semantics, interpreter control
 * flow, trace capture, architectural state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "exec/interp.hh"
#include "isa/builder.hh"
#include "workloads/workloads.hh"

namespace dee
{
namespace
{

TEST(AluSemantics, Arithmetic)
{
    EXPECT_EQ(semantics::alu(Opcode::Add, 2, 3), 5);
    EXPECT_EQ(semantics::alu(Opcode::Sub, 2, 3), -1);
    EXPECT_EQ(semantics::alu(Opcode::Mul, -4, 3), -12);
    EXPECT_EQ(semantics::alu(Opcode::Div, 7, 2), 3);
    EXPECT_EQ(semantics::alu(Opcode::Div, 7, 0), 0) << "div-by-0 is 0";
}

TEST(AluSemantics, Bitwise)
{
    EXPECT_EQ(semantics::alu(Opcode::And, 0b1100, 0b1010), 0b1000);
    EXPECT_EQ(semantics::alu(Opcode::Or, 0b1100, 0b1010), 0b1110);
    EXPECT_EQ(semantics::alu(Opcode::Xor, 0b1100, 0b1010), 0b0110);
    EXPECT_EQ(semantics::alu(Opcode::Sll, 1, 4), 16);
    EXPECT_EQ(semantics::alu(Opcode::Srl, 16, 4), 1);
    EXPECT_EQ(semantics::alu(Opcode::Slt, -1, 0), 1);
    EXPECT_EQ(semantics::alu(Opcode::Slt, 0, 0), 0);
}

TEST(AluSemantics, ShiftAmountsAreMasked)
{
    EXPECT_EQ(semantics::alu(Opcode::Sll, 1, 64), 1);
    EXPECT_EQ(semantics::alu(Opcode::Srl, 2, 65), 1);
}

TEST(AluSemantics, OverflowWraps)
{
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(semantics::alu(Opcode::Add, max, 1),
              std::numeric_limits<std::int64_t>::min());
}

TEST(BranchSemantics, AllConditions)
{
    EXPECT_TRUE(semantics::branchTaken(Opcode::BranchEq, 3, 3));
    EXPECT_FALSE(semantics::branchTaken(Opcode::BranchEq, 3, 4));
    EXPECT_TRUE(semantics::branchTaken(Opcode::BranchNe, 3, 4));
    EXPECT_TRUE(semantics::branchTaken(Opcode::BranchLt, -1, 0));
    EXPECT_FALSE(semantics::branchTaken(Opcode::BranchLt, 0, 0));
    EXPECT_TRUE(semantics::branchTaken(Opcode::BranchGe, 0, 0));
}

TEST(MachineState, ZeroRegisterSemantics)
{
    MachineState st;
    st.writeReg(kZeroReg, 42);
    EXPECT_EQ(st.readReg(kZeroReg), 0);
    st.writeReg(5, 42);
    EXPECT_EQ(st.readReg(5), 42);
}

TEST(MachineState, SparseMemoryDefaultsToZero)
{
    MachineState st;
    EXPECT_EQ(st.readMem(0xdeadbeef), 0);
    st.writeMem(0xdeadbeef, -7);
    EXPECT_EQ(st.readMem(0xdeadbeef), -7);
}

Program
sumLoop(std::int64_t n)
{
    // r3 = sum(1..n) via a loop; also store the result at address 100.
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId body = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);  // i
    pb.loadImm(2, n);  // limit
    pb.loadImm(3, 0);  // sum
    pb.switchTo(body);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.alu(Opcode::Add, 3, 3, 1);
    pb.branch(Opcode::BranchLt, 1, 2, body);
    pb.switchTo(done);
    pb.store(3, kZeroReg, 100);
    pb.halt();
    return pb.build();
}

TEST(Interpreter, LoopComputesSum)
{
    Program p = sumLoop(10);
    Interpreter interp(p);
    ExecResult r = interp.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.state.regs[3], 55);
    EXPECT_EQ(r.state.readMem(100), 55);
}

TEST(Interpreter, TraceLengthMatchesSteps)
{
    Program p = sumLoop(10);
    Interpreter interp(p);
    ExecResult r = interp.run();
    EXPECT_EQ(r.trace.records.size(), r.steps);
    // 3 init + 10*3 loop + store + halt = 35
    EXPECT_EQ(r.steps, 35u);
}

TEST(Interpreter, TraceBranchOutcomes)
{
    Program p = sumLoop(3);
    Interpreter interp(p);
    ExecResult r = interp.run();
    int taken = 0, not_taken = 0;
    for (const auto &rec : r.trace.records) {
        if (!rec.isBranch)
            continue;
        EXPECT_TRUE(rec.backward);
        rec.taken ? ++taken : ++not_taken;
    }
    EXPECT_EQ(taken, 2);     // two back-edges taken
    EXPECT_EQ(not_taken, 1); // final exit
}

TEST(Interpreter, TraceRecordsMemAddresses)
{
    Program p = sumLoop(2);
    Interpreter interp(p);
    ExecResult r = interp.run();
    bool saw_store = false;
    for (const auto &rec : r.trace.records) {
        if (opClass(rec.op) == OpClass::Store) {
            saw_store = true;
            EXPECT_EQ(rec.memAddr, 100u);
        }
    }
    EXPECT_TRUE(saw_store);
}

TEST(Interpreter, StepCapTruncates)
{
    Program p = sumLoop(1000000);
    Interpreter interp(p);
    ExecResult r = interp.run(100);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.steps, 100u);
    EXPECT_EQ(r.trace.size(), 100u);
    EXPECT_EQ(r.trace.numStatic, p.numInstrs());
    for (const std::uint64_t cap : {0ull, 1ull, 17ull}) {
        const ExecResult c = interp.run(cap);
        EXPECT_EQ(c.steps, cap);
        EXPECT_EQ(c.trace.size(), cap);
        EXPECT_FALSE(c.halted);
    }
    // A cap equal to the full run still halts.
    const Interpreter small(sumLoop(10));
    const std::uint64_t steps = small.run().steps;
    EXPECT_TRUE(small.run(steps).halted);
    EXPECT_FALSE(small.run(steps - 1).halted);
}

TEST(Interpreter, CaptureDisabledStillComputes)
{
    Program p = sumLoop(10);
    Interpreter interp(p);
    ExecResult r = interp.run(1'000'000, false);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.trace.records.empty());
    EXPECT_EQ(r.state.regs[3], 55);

    // Same state and steps as a capturing run, halted or capped.
    for (const WorkloadId id : allWorkloads()) {
        const Interpreter w(makeWorkload(id, 1, 3));
        for (const std::uint64_t cap : {1'000ull, 50'000'000ull}) {
            const ExecResult on = w.run(cap, true);
            const ExecResult off = w.run(cap, false);
            EXPECT_TRUE(off.trace.records.empty());
            EXPECT_EQ(off.trace.numStatic, on.trace.numStatic);
            EXPECT_EQ(off.steps, on.steps) << workloadName(id);
            EXPECT_EQ(off.halted, on.halted) << workloadName(id);
            EXPECT_EQ(off.state.regs, on.state.regs) << workloadName(id);
            EXPECT_EQ(off.state.memory, on.state.memory)
                << workloadName(id);
        }
    }
}

TEST(Interpreter, ForwardBranchSkipsThen)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 1);
    pb.branch(Opcode::BranchEq, 1, 1, b2); // always taken
    pb.switchTo(b1);
    pb.loadImm(2, 99); // skipped
    pb.switchTo(b2);
    pb.halt();
    Interpreter interp(pb.build());
    ExecResult r = interp.run();
    EXPECT_EQ(r.state.regs[2], 0);
    // Forward branch: backward flag must be false.
    for (const auto &rec : r.trace.records)
        if (rec.isBranch)
            EXPECT_FALSE(rec.backward);
}

TEST(Interpreter, JumpTransfersControl)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.jump(b2);
    pb.switchTo(b1);
    pb.loadImm(2, 99); // unreachable
    pb.switchTo(b2);
    pb.halt();
    Interpreter interp(pb.build());
    ExecResult r = interp.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.state.regs[2], 0);
    EXPECT_EQ(r.steps, 2u);
}

TEST(Interpreter, EmptyBlockFallsThrough)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    pb.newBlock(); // b1 left empty
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 7);
    pb.switchTo(b2);
    pb.halt();
    Interpreter interp(pb.build());
    ExecResult r = interp.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.state.regs[1], 7);
}

TEST(Interpreter, NumStaticRecorded)
{
    Program p = sumLoop(2);
    Interpreter interp(p);
    ExecResult r = interp.run();
    EXPECT_EQ(r.trace.numStatic, p.numInstrs());
}

/** FNV-1a over every observable output of a run: each TraceRecord field,
 *  numStatic, the final registers, the memory map in address order,
 *  steps and halted. */
class RunDigest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
digestRun(const ExecResult &r)
{
    RunDigest d;
    d.add(r.trace.records.size());
    for (const TraceRecord &rec : r.trace.records) {
        d.add(rec.sid);
        d.add(rec.block);
        d.add(static_cast<std::uint64_t>(rec.op));
        d.add(rec.rd);
        d.add(rec.rs1);
        d.add(rec.rs2);
        d.add(rec.memAddr);
        d.add(rec.isBranch);
        d.add(rec.taken);
        d.add(rec.backward);
    }
    d.add(r.trace.numStatic);
    for (const std::int64_t v : r.state.regs)
        d.add(static_cast<std::uint64_t>(v));
    std::vector<std::pair<std::uint64_t, std::int64_t>> mem(
        r.state.memory.begin(), r.state.memory.end());
    std::sort(mem.begin(), mem.end());
    d.add(mem.size());
    for (const auto &[addr, val] : mem) {
        d.add(addr);
        d.add(static_cast<std::uint64_t>(val));
    }
    d.add(r.steps);
    d.add(r.halted);
    return d.value();
}

struct GoldenRun
{
    WorkloadId id;
    int scale;
    std::uint64_t seed;
    std::uint64_t steps;
    std::uint64_t digest;
};

// Recorded with the block-walking interpreter that preceded the
// flattened one; any change to a trace field, the final state, the step
// count or the halt flag moves a digest.
const GoldenRun kGolden[] = {
    {WorkloadId::Cc1, 1, 0, 36636, 0x7c415d2e10210c13ull},
    {WorkloadId::Cc1, 1, 7, 36412, 0x775150e447ad17caull},
    {WorkloadId::Cc1, 4, 0, 144634, 0x3a629fd13b8133faull},
    {WorkloadId::Cc1, 4, 7, 144451, 0x611a1415019934b1ull},
    {WorkloadId::Compress, 1, 0, 75167, 0xca61355b682179f8ull},
    {WorkloadId::Compress, 1, 7, 75119, 0xf57866eae6c554f4ull},
    {WorkloadId::Compress, 4, 0, 300651, 0xf5bc4a315543842cull},
    {WorkloadId::Compress, 4, 7, 300684, 0x53c63f3be8898be2ull},
    {WorkloadId::Eqntott, 1, 0, 128752, 0xe4fc38014991dcd2ull},
    {WorkloadId::Eqntott, 1, 7, 129528, 0xc534667af62661f3ull},
    {WorkloadId::Eqntott, 4, 0, 516412, 0xb1cc8cd037552fdfull},
    {WorkloadId::Eqntott, 4, 7, 514654, 0xe2ff21c475c33e1dull},
    {WorkloadId::Espresso, 1, 0, 109993, 0x48da3db48e165195ull},
    {WorkloadId::Espresso, 1, 7, 109254, 0xd95fd41e3154c1feull},
    {WorkloadId::Espresso, 4, 0, 436914, 0x909b6d9705fb1a13ull},
    {WorkloadId::Espresso, 4, 7, 438132, 0xca2e94b5450c2ff7ull},
    {WorkloadId::Xlisp, 1, 0, 339243, 0x7f1f1aac6fc2e627ull},
    {WorkloadId::Xlisp, 1, 7, 339232, 0xe2132fd837c398a7ull},
    {WorkloadId::Xlisp, 4, 0, 1355784, 0xdacad87ef8adfa3aull},
    {WorkloadId::Xlisp, 4, 7, 1356430, 0x428ff405aec78576ull},
};

TEST(InterpreterGolden, WorkloadRunsAreBitExact)
{
    for (const GoldenRun &g : kGolden) {
        const Program program = makeWorkload(g.id, g.scale, g.seed);
        // One step of slack shows a run that would not halt in time
        // without letting it run long.
        const ExecResult r = Interpreter(program).run(g.steps + 1, true);
        EXPECT_EQ(r.steps, g.steps);
        EXPECT_TRUE(r.halted);
        const std::uint64_t digest = digestRun(r);
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llx",
                      static_cast<unsigned long long>(digest));
        EXPECT_EQ(digest, g.digest)
            << workloadName(g.id) << " scale " << g.scale << " seed "
            << g.seed << ": digest " << hex << ", " << r.steps
            << " steps";
    }
}

TEST(Interpreter, BranchIntoEmptyBlockRecordsExecutedBlock)
{
    // b1 jumps to the empty b2, and b4's taken branch goes back to it:
    // each lands on the first instruction at or after b2 (in b4), and
    // the trace names the block that holds it.
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    const BlockId b3 = pb.newBlock();
    const BlockId b4 = pb.newBlock();
    const BlockId b5 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 1);
    pb.branch(Opcode::BranchEq, 1, kZeroReg, b3); // not taken
    pb.switchTo(b1);
    pb.jump(b2);
    pb.switchTo(b2); // empty
    pb.switchTo(b3); // empty
    pb.switchTo(b4);
    pb.loadImm(2, 5);
    pb.branch(Opcode::BranchNe, 2, kZeroReg, b2); // taken, backward
    pb.switchTo(b5);
    pb.halt();
    const ExecResult r = Interpreter(pb.build()).run(7);
    // b0: li, beq | b1: j | b4: li, bne | b4: li, bne (cap at 7)
    ASSERT_EQ(r.trace.size(), 7u);
    const BlockId blocks[] = {b0, b0, b1, b4, b4, b4, b4};
    const StaticId sids[] = {0, 1, 2, 3, 4, 3, 4};
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(r.trace[i].block, blocks[i]) << "record " << i;
        EXPECT_EQ(r.trace[i].sid, sids[i]) << "record " << i;
    }
    EXPECT_TRUE(r.trace[1].isBranch);
    EXPECT_FALSE(r.trace[1].taken);
    EXPECT_FALSE(r.trace[1].backward);
    EXPECT_TRUE(r.trace[4].isBranch);
    EXPECT_TRUE(r.trace[4].taken);
    EXPECT_TRUE(r.trace[4].backward) << "target b2 <= b4";
    EXPECT_FALSE(r.trace[2].isBranch) << "a jump is not a branch";
    EXPECT_FALSE(r.trace[2].backward);
}

TEST(Interpreter, BackwardJumpIntoEmptyBlock)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    const BlockId b3 = pb.newBlock();
    const BlockId b4 = pb.newBlock();
    const BlockId b5 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 1);
    pb.switchTo(b1); // empty
    pb.switchTo(b2);
    pb.aluImm(Opcode::AddI, 2, 2, 1);
    pb.branch(Opcode::BranchEq, 2, 1, b4); // taken once, forward
    pb.switchTo(b3);
    pb.halt();
    pb.switchTo(b4); // empty
    pb.switchTo(b5);
    pb.jump(b1); // backward, into the empty b1
    const ExecResult r = Interpreter(pb.build()).run();
    ASSERT_TRUE(r.halted);
    // li | addi, beq (taken) | j | addi, beq (not taken) | halt
    ASSERT_EQ(r.trace.size(), 7u);
    const BlockId blocks[] = {b0, b2, b2, b5, b2, b2, b3};
    const StaticId sids[] = {0, 1, 2, 4, 1, 2, 3};
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(r.trace[i].block, blocks[i]) << "record " << i;
        EXPECT_EQ(r.trace[i].sid, sids[i]) << "record " << i;
    }
    EXPECT_TRUE(r.trace[2].taken);
    EXPECT_FALSE(r.trace[2].backward);
    EXPECT_FALSE(r.trace[5].taken);
    EXPECT_FALSE(r.trace[3].isBranch);
    EXPECT_FALSE(r.trace[3].backward) << "backward is for branches only";
    EXPECT_EQ(r.state.regs[2], 2);
}

TEST(InterpreterDeathTest, FallingOffTheProgramEndPanics)
{
    // The last block ends in a branch, which validate() accepts; not
    // taken, it would fall through past the last instruction.
    ProgramBuilder pb;
    pb.switchTo(pb.newBlock());
    pb.loadImm(1, 1);
    pb.branch(Opcode::BranchEq, 1, kZeroReg, 0);
    const Program p = pb.build();
    EXPECT_DEATH(Interpreter(p).run(), "fell off program end");
    EXPECT_DEATH(Interpreter(p).run(1'000'000, false),
                 "fell off program end");
    // The step cap comes first: stopping before the fall is no error.
    EXPECT_EQ(Interpreter(p).run(2).steps, 2u);
}

TEST(Interpreter, WritesToR0AreIgnored)
{
    ProgramBuilder pb;
    pb.switchTo(pb.newBlock());
    pb.loadImm(kZeroReg, 99);
    pb.aluImm(Opcode::AddI, kZeroReg, kZeroReg, 5);
    pb.store(kZeroReg, kZeroReg, 8); // mem[8] = r0
    pb.load(kZeroReg, kZeroReg, 8);
    pb.aluImm(Opcode::AddI, 1, kZeroReg, 3); // r1 = r0 + 3
    pb.halt();
    const ExecResult r = Interpreter(pb.build()).run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.state.regs[kZeroReg], 0);
    EXPECT_EQ(r.state.regs[1], 3);
    EXPECT_EQ(r.state.readMem(8), 0);
    // A write to r0 has no destination in the trace.
    EXPECT_EQ(r.trace[0].rd, kNoReg);
    EXPECT_EQ(r.trace[4].rd, 1);
}

TEST(Interpreter, MemoryHoldsExactlyTheWrittenAddresses)
{
    ProgramBuilder pb;
    pb.switchTo(pb.newBlock());
    pb.loadImm(1, 7);
    pb.loadImm(2, -3);
    pb.load(3, kZeroReg, 4096);  // unwritten: reads 0
    pb.store(1, kZeroReg, 64);
    pb.store(2, kZeroReg, 0);    // address 0 is an ordinary word
    pb.store(1, 2, -5);          // address -8 as a u64
    pb.store(2, kZeroReg, 64);   // overwrite
    pb.load(4, kZeroReg, 64);
    pb.load(5, kZeroReg, 0);
    pb.halt();
    const ExecResult r = Interpreter(pb.build()).run();
    EXPECT_EQ(r.state.regs[3], 0);
    EXPECT_EQ(r.state.regs[4], -3);
    EXPECT_EQ(r.state.regs[5], -3);
    const std::unordered_map<std::uint64_t, std::int64_t> want = {
        {64, -3}, {0, -3}, {static_cast<std::uint64_t>(-8), 7}};
    EXPECT_EQ(r.state.memory, want);
    EXPECT_EQ(r.trace[2].memAddr, 4096u);
    EXPECT_EQ(r.trace[5].memAddr, static_cast<std::uint64_t>(-8));
}

TEST(Interpreter, ManyAddressesSurviveExport)
{
    // Enough distinct words to grow any hash table several times, some
    // written twice; every one must reach MachineState::memory.
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId body = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);     // i
    pb.loadImm(2, 5000);  // limit
    pb.switchTo(body);
    pb.aluImm(Opcode::ShlI, 3, 1, 3);     // r3 = i * 8
    pb.store(1, 3, 0);                    // mem[8i] = i
    pb.aluImm(Opcode::AndI, 4, 1, 1023);  // r4 = i % 1024
    pb.aluImm(Opcode::ShlI, 4, 4, 3);
    pb.store(1, 4, 1 << 20);              // mem[2^20 + 8(i%1024)] = i
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.branch(Opcode::BranchLt, 1, 2, body);
    pb.switchTo(done);
    pb.halt();
    const ExecResult r = Interpreter(pb.build()).run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.state.memory.size(), 5000u + 1024u);
    for (std::int64_t i = 0; i < 5000; ++i)
        EXPECT_EQ(r.state.readMem(static_cast<std::uint64_t>(8 * i)), i);
    for (std::int64_t k = 0; k < 1024; ++k) {
        const std::int64_t last = k + 1024 * ((4999 - k) / 1024);
        EXPECT_EQ(r.state.readMem(static_cast<std::uint64_t>(
                      (1 << 20) + 8 * k)),
                  last);
    }
}

TEST(Interpreter, TraceIsSizedExactly)
{
    const Program p = makeWorkload(WorkloadId::Compress, 1, 0);
    const ExecResult r = Interpreter(p).run();
    EXPECT_EQ(r.trace.records.size(), r.steps);
    EXPECT_EQ(r.trace.records.capacity(), r.trace.records.size());
    const ExecResult capped = Interpreter(p).run(12345);
    EXPECT_EQ(capped.trace.records.capacity(), 12345u);
}

} // namespace
} // namespace dee
