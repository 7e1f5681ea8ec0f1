/**
 * @file
 * Functional ("golden model") interpreter.
 *
 * Executes a Program sequentially, producing both the final architectural
 * state and the dynamic Trace that drives the ILP simulators. The Levo
 * machine model validates its architectural results against this
 * interpreter — the same role the sequential machine plays as the
 * speedup-1.0 baseline in the paper.
 */

#ifndef DEE_EXEC_INTERP_HH
#define DEE_EXEC_INTERP_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/isa.hh"
#include "trace/trace.hh"

namespace dee
{

/** Architectural state: registers and word-granular sparse memory. */
struct MachineState
{
    std::vector<std::int64_t> regs = std::vector<std::int64_t>(kNumRegs, 0);
    std::unordered_map<std::uint64_t, std::int64_t> memory;

    std::int64_t readReg(RegId r) const;
    void writeReg(RegId r, std::int64_t v);
    std::int64_t readMem(std::uint64_t addr) const;
    void writeMem(std::uint64_t addr, std::int64_t v);
};

/** Pure instruction semantics shared by the interpreter and Levo. */
namespace semantics
{

/** ALU result for register and immediate forms. Division by zero is 0. */
std::int64_t alu(Opcode op, std::int64_t a, std::int64_t b);

/** Branch condition outcome. */
bool branchTaken(Opcode op, std::int64_t a, std::int64_t b);

} // namespace semantics

/** Outcome of an interpreter run. */
struct ExecResult
{
    Trace trace;            ///< Dynamic trace (if capture was enabled).
    MachineState state;     ///< Final architectural state.
    std::uint64_t steps = 0;///< Instructions executed.
    bool halted = false;    ///< Reached Halt (vs. hitting the step cap).
};

/** Sequential interpreter over a validated Program. */
class Interpreter
{
  public:
    /** Validates the program and flattens it into a per-static-id table
     *  (taken by value, so passing a temporary such as builder.build()
     *  is safe; the interpreter keeps only the table). */
    explicit Interpreter(Program program);

    /**
     * Runs from block 0 until Halt or max_instrs.
     *
     * With capture on, execution runs twice: a pass that records
     * nothing counts the steps (execution is deterministic), then the
     * capturing pass writes into a trace reserved to exactly that
     * size, so the records are never copied by vector growth.
     *
     * @param max_instrs step cap (guards generator bugs / long loops)
     * @param capture_trace disable to save memory when only the final
     *                      state matters
     */
    ExecResult run(std::uint64_t max_instrs = 1'000'000,
                   bool capture_trace = true) const;

  private:
    /** How the run loop executes one static instruction. */
    enum class Step : std::uint8_t
    {
        AluReg,  ///< rd <- rs1 op rs2
        AluImm,  ///< rd <- rs1 op imm
        LoadImm, ///< rd <- imm
        Load,
        Store,
        Branch,
        Jump,
        Halt,
        Nop,
        FellOff, ///< one past the last instruction
    };

    /** One static instruction, flattened for the run loop. */
    struct FlatInstr
    {
        /** The trace record this instruction produces, less memAddr and
         *  taken: sid, block, op, dest(), rs1, rs2, isBranch and the
         *  precomputed backward bit. */
        TraceRecord rec;
        std::int64_t imm = 0;
        /** Branch/jump: first static id at or after the target block. */
        StaticId target = 0;
        RegId rd = kNoReg; ///< Destination operand as written.
        Step step = Step::Nop;
    };

    struct Pass;

    template <bool Capture>
    Pass execute(std::uint64_t max_instrs,
                 std::vector<TraceRecord> *records) const;

    /** Indexed by static id, plus a FellOff entry after the last. */
    std::vector<FlatInstr> code_;
};

} // namespace dee

#endif // DEE_EXEC_INTERP_HH
