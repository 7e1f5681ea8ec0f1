#include "exec/interp.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "common/logging.hh"

namespace dee
{

std::int64_t
MachineState::readReg(RegId r) const
{
    dee_assert(r < kNumRegs, "register ", int{r}, " out of range");
    return r == kZeroReg ? 0 : regs[r];
}

void
MachineState::writeReg(RegId r, std::int64_t v)
{
    dee_assert(r < kNumRegs, "register ", int{r}, " out of range");
    if (r != kZeroReg)
        regs[r] = v;
}

std::int64_t
MachineState::readMem(std::uint64_t addr) const
{
    auto it = memory.find(addr);
    return it == memory.end() ? 0 : it->second;
}

void
MachineState::writeMem(std::uint64_t addr, std::int64_t v)
{
    memory[addr] = v;
}

namespace semantics
{

std::int64_t
alu(Opcode op, std::int64_t a, std::int64_t b)
{
    const auto ua = static_cast<std::uint64_t>(a);
    switch (op) {
      case Opcode::Add:
      case Opcode::AddI:
        return static_cast<std::int64_t>(
            ua + static_cast<std::uint64_t>(b));
      case Opcode::Sub:
        return static_cast<std::int64_t>(
            ua - static_cast<std::uint64_t>(b));
      case Opcode::Mul:
        return static_cast<std::int64_t>(
            ua * static_cast<std::uint64_t>(b));
      case Opcode::Div:
        return b == 0 ? 0 : a / b;
      case Opcode::And:
      case Opcode::AndI:
        return a & b;
      case Opcode::Or:
      case Opcode::OrI:
        return a | b;
      case Opcode::Xor:
      case Opcode::XorI:
        return a ^ b;
      case Opcode::Sll:
      case Opcode::ShlI:
        return static_cast<std::int64_t>(ua << (b & 63));
      case Opcode::Srl:
      case Opcode::ShrI:
        return static_cast<std::int64_t>(ua >> (b & 63));
      case Opcode::Slt:
      case Opcode::SltI:
        return a < b ? 1 : 0;
      default:
        dee_panic("alu() called with non-ALU opcode ", opcodeName(op));
    }
}

bool
branchTaken(Opcode op, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case Opcode::BranchEq:
        return a == b;
      case Opcode::BranchNe:
        return a != b;
      case Opcode::BranchLt:
        return a < b;
      case Opcode::BranchGe:
        return a >= b;
      default:
        dee_panic("branchTaken() with non-branch opcode ",
                  opcodeName(op));
    }
}

} // namespace semantics

namespace
{

/**
 * Word-granular memory for one run: open addressing over the indices of
 * a dense entry list kept in first-write order. Exporting in that order
 * gives MachineState::memory the contents and iteration order that
 * inserting at each first write would.
 */
class WordMemory
{
  public:
    std::int64_t
    read(std::uint64_t addr) const
    {
        for (std::size_t i = home(addr);; i = (i + 1) & mask()) {
            const std::uint32_t e = slots_[i];
            if (e == 0)
                return 0;
            if (entries_[e - 1].first == addr)
                return entries_[e - 1].second;
        }
    }

    void
    write(std::uint64_t addr, std::int64_t v)
    {
        std::size_t i = home(addr);
        for (; slots_[i] != 0; i = (i + 1) & mask()) {
            auto &entry = entries_[slots_[i] - 1];
            if (entry.first == addr) {
                entry.second = v;
                return;
            }
        }
        entries_.emplace_back(addr, v);
        slots_[i] = static_cast<std::uint32_t>(entries_.size());
        if (2 * entries_.size() > slots_.size())
            rehash();
    }

    void
    exportTo(std::unordered_map<std::uint64_t, std::int64_t> &memory) const
    {
        for (const auto &[addr, v] : entries_)
            memory.emplace(addr, v);
    }

  private:
    std::size_t mask() const { return slots_.size() - 1; }

    /** Fibonacci hashing: the top bits of addr * 2^64/phi. */
    std::size_t
    home(std::uint64_t addr) const
    {
        return static_cast<std::size_t>(
            (addr * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    void
    rehash()
    {
        slots_.assign(2 * slots_.size(), 0);
        --shift_;
        for (std::uint32_t e = 0; e < entries_.size(); ++e) {
            std::size_t i = home(entries_[e].first);
            while (slots_[i] != 0)
                i = (i + 1) & mask();
            slots_[i] = e + 1;
        }
    }

    /** 0 = empty, else 1 + index into entries_. */
    std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(64, 0);
    unsigned shift_ = 64 - 6;
    std::vector<std::pair<std::uint64_t, std::int64_t>> entries_;
};

} // namespace

/** The outcome of one execution pass. */
struct Interpreter::Pass
{
    std::uint64_t steps = 0;
    bool halted = false;
    std::array<std::int64_t, kNumRegs> regs{};
    WordMemory memory;
};

Interpreter::Interpreter(Program program)
{
    program.validate();

    // First static id at or after each block: an empty block starts
    // where the next non-empty one does, so control transfers need no
    // fallthrough walk at run time.
    std::vector<StaticId> start(program.numBlocks());
    StaticId next = 0;
    for (BlockId b = 0; b < program.numBlocks(); ++b) {
        start[b] = next;
        next += static_cast<StaticId>(program.block(b).instrs.size());
    }

    code_.reserve(program.numInstrs() + 1);
    for (BlockId b = 0; b < program.numBlocks(); ++b) {
        for (const Instruction &inst : program.block(b).instrs) {
            FlatInstr f;
            f.rec.sid = static_cast<StaticId>(code_.size());
            f.rec.block = b;
            f.rec.op = inst.op;
            f.rec.rd = inst.dest();
            f.rec.rs1 = inst.rs1;
            f.rec.rs2 = inst.rs2;
            f.imm = inst.imm;
            f.rd = inst.rd;
            switch (opClass(inst.op)) {
              case OpClass::IntAlu:
                f.step = inst.op == Opcode::LoadImm ? Step::LoadImm
                         : inst.rs2 != kNoReg       ? Step::AluReg
                                                    : Step::AluImm;
                break;
              case OpClass::Load:
                f.step = Step::Load;
                break;
              case OpClass::Store:
                f.step = Step::Store;
                break;
              case OpClass::CondBranch:
                f.step = Step::Branch;
                f.rec.isBranch = true;
                f.rec.backward = inst.target <= b;
                f.target = start[inst.target];
                break;
              case OpClass::Jump:
                f.step = Step::Jump;
                f.target = start[inst.target];
                break;
              case OpClass::Halt:
                f.step = Step::Halt;
                break;
              case OpClass::Nop:
                f.step = Step::Nop;
                break;
            }
            code_.push_back(f);
        }
    }
    FlatInstr end;
    end.step = Step::FellOff;
    code_.push_back(end);
}

template <bool Capture>
Interpreter::Pass
Interpreter::execute(std::uint64_t max_instrs,
                     std::vector<TraceRecord> *records) const
{
    Pass pass;
    std::int64_t *const regs = pass.regs.data();
    const auto get = [regs](RegId r) {
        dee_assert(r < kNumRegs, "register ", int{r}, " out of range");
        return regs[r];
    };
    const auto put = [regs](RegId r, std::int64_t v) {
        dee_assert(r < kNumRegs, "register ", int{r}, " out of range");
        regs[r] = v;
        regs[kZeroReg] = 0; // r0 ignores writes
    };

    const FlatInstr *const code = code_.data();
    StaticId sid = 0;
    std::uint64_t steps = 0;
    while (steps < max_instrs) {
        const FlatInstr &in = code[sid];
        std::uint64_t addr = 0;
        bool taken = false;
        StaticId next = sid + 1;
        switch (in.step) {
          case Step::AluReg:
            put(in.rd, semantics::alu(in.rec.op, get(in.rec.rs1),
                                      get(in.rec.rs2)));
            break;
          case Step::AluImm:
            put(in.rd, semantics::alu(in.rec.op, get(in.rec.rs1), in.imm));
            break;
          case Step::LoadImm:
            put(in.rd, in.imm);
            break;
          case Step::Load:
            addr = static_cast<std::uint64_t>(get(in.rec.rs1) + in.imm);
            put(in.rd, pass.memory.read(addr));
            break;
          case Step::Store:
            addr = static_cast<std::uint64_t>(get(in.rec.rs1) + in.imm);
            pass.memory.write(addr, get(in.rec.rs2));
            break;
          case Step::Branch:
            taken = semantics::branchTaken(in.rec.op, get(in.rec.rs1),
                                           get(in.rec.rs2));
            if (taken)
                next = in.target;
            break;
          case Step::Jump:
            next = in.target;
            break;
          case Step::Halt:
            pass.halted = true;
            break;
          case Step::Nop:
            break;
          case Step::FellOff:
            dee_panic("fell off program end (validate missed it)");
        }
        ++steps;
        if constexpr (Capture) {
            TraceRecord rec = in.rec;
            rec.memAddr = addr;
            rec.taken = taken;
            records->push_back(rec);
        }
        if (pass.halted)
            break;
        sid = next;
    }
    pass.steps = steps;
    return pass;
}

ExecResult
Interpreter::run(std::uint64_t max_instrs, bool capture_trace) const
{
    ExecResult result;
    // Execution is deterministic, so a pass that records nothing gives
    // the exact length of the capturing pass's trace.
    if (capture_trace)
        result.trace.records.reserve(
            execute<false>(max_instrs, nullptr).steps);
    const Pass pass =
        capture_trace ? execute<true>(max_instrs, &result.trace.records)
                      : execute<false>(max_instrs, nullptr);

    result.steps = pass.steps;
    result.halted = pass.halted;
    std::copy(pass.regs.begin(), pass.regs.end(), result.state.regs.begin());
    pass.memory.exportTo(result.state.memory);
    result.trace.numStatic = static_cast<std::uint32_t>(code_.size() - 1);
    return result;
}

} // namespace dee
