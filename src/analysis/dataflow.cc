#include "analysis/dataflow.hh"

#include <cstdint>

#include "dbt/semantics.hh"

namespace s2e::analysis {

using dbt::MicroOp;
using dbt::TranslationBlock;
using dbt::UOp;

bool
isTerminator(UOp op)
{
    switch (op) {
      case UOp::Goto:
      case UOp::GotoInd:
      case UOp::Branch:
      case UOp::CallDir:
      case UOp::Ret:
      case UOp::IntSw:
      case UOp::IretOp:
      case UOp::Halt:
        return true;
      default:
        return false;
    }
}

OpEffects
effectsOf(const MicroOp &op)
{
    OpEffects e;
    if (dbt::isAluUnary(op.op) || dbt::isAluBinary(op.op)) {
        e.usesA = true;
        e.usesB = dbt::isAluBinary(op.op);
        e.defsTemp = true;
        return e;
    }
    switch (op.op) {
      case UOp::Const:
        e.defsTemp = true;
        break;
      case UOp::GetReg:
        e.defsTemp = true;
        break;
      case UOp::SetReg:
        e.usesA = true;
        e.sideEffect = true;
        break;
      case UOp::GetFlag:
        e.defsTemp = true;
        e.readsFlag = op.reg;
        break;
      case UOp::SetFlag:
        e.usesA = true;
        e.writesFlag = op.reg;
        break;

      case UOp::Load:
        e.usesA = true;
        e.defsTemp = true;
        e.sideEffect = true; // may fault / fork / fire events
        break;
      case UOp::Store:
        e.usesA = true;
        e.usesB = true;
        e.sideEffect = true;
        break;

      case UOp::In:
        e.usesA = true;
        e.defsTemp = true;
        e.sideEffect = true;
        break;
      case UOp::Out:
        e.usesA = true;
        e.usesB = true;
        e.sideEffect = true;
        break;

      case UOp::Goto:
      case UOp::CallDir:
      case UOp::IntSw:
      case UOp::IretOp:
      case UOp::Halt:
        e.sideEffect = true;
        e.terminator = true;
        break;
      case UOp::GotoInd:
      case UOp::Ret:
        e.usesA = true;
        e.sideEffect = true;
        e.terminator = true;
        break;
      case UOp::Branch:
        e.usesA = true;
        e.sideEffect = true;
        e.terminator = true;
        break;

      case UOp::S2Op:
        e.sideEffect = true;
        switch (static_cast<isa::Opcode>(op.imm)) {
          case isa::Opcode::S2SymMem:
          case isa::Opcode::S2SymRange:
            e.usesA = true;
            e.usesB = true;
            break;
          case isa::Opcode::S2Out:
          case isa::Opcode::S2Assert:
            e.usesA = true;
            break;
          default:
            break;
        }
        break;

      default:
        break; // ALU ops, handled above
    }
    return e;
}

DefUse
computeDefUse(const TranslationBlock &tb)
{
    DefUse du;
    du.temps.resize(tb.numTemps);
    for (size_t i = 0; i < tb.ops.size(); ++i) {
        const MicroOp &op = tb.ops[i];
        OpEffects e = effectsOf(op);
        if (e.usesA && op.a < du.temps.size())
            du.temps[op.a].uses.push_back(static_cast<uint32_t>(i));
        if (e.usesB && op.b < du.temps.size())
            du.temps[op.b].uses.push_back(static_cast<uint32_t>(i));
        if (e.defsTemp && op.dst < du.temps.size())
            du.temps[op.dst].def = static_cast<int>(i);
    }
    return du;
}

Liveness
computeLiveness(const TranslationBlock &tb)
{
    Liveness lv;
    lv.liveOps.assign(tb.ops.size(), false);
    std::vector<bool> live_temp(tb.numTemps, false);
    // Flags survive the block: the next block, an interrupt entry
    // (which pushes packed flags) or an iret may read them.
    bool live_flag[kNumFlags] = {true, true, true, true};

    for (size_t ri = tb.ops.size(); ri-- > 0;) {
        const MicroOp &op = tb.ops[ri];
        OpEffects e = effectsOf(op);

        bool live;
        if (e.sideEffect) {
            live = true;
        } else if (e.writesFlag >= 0) {
            live = live_flag[e.writesFlag];
            if (!live)
                lv.deadFlagWrites++;
        } else {
            // Pure op: live iff its destination is.
            live = e.defsTemp && op.dst < live_temp.size() &&
                   live_temp[op.dst];
            if (!live)
                lv.deadTempOps++;
        }
        lv.liveOps[ri] = live;
        if (!live)
            continue;

        if (e.defsTemp && op.dst < live_temp.size())
            live_temp[op.dst] = false;
        if (e.writesFlag >= 0)
            live_flag[e.writesFlag] = false;
        if (e.readsFlag >= 0 &&
            static_cast<unsigned>(e.readsFlag) < kNumFlags)
            live_flag[e.readsFlag] = true;
        if (e.usesA && op.a < live_temp.size())
            live_temp[op.a] = true;
        if (e.usesB && op.b < live_temp.size())
            live_temp[op.b] = true;
    }
    return lv;
}

Constants
computeConstants(const TranslationBlock &tb)
{
    Constants out;
    out.result.assign(tb.ops.size(), std::nullopt);

    std::vector<std::optional<uint32_t>> temp(tb.numTemps);
    std::optional<uint32_t> reg[isa::kNumRegs];
    std::optional<uint32_t> flag[kNumFlags];

    auto temp_of = [&](uint16_t t) -> std::optional<uint32_t> {
        return t < temp.size() ? temp[t] : std::nullopt;
    };

    for (size_t i = 0; i < tb.ops.size(); ++i) {
        const MicroOp &op = tb.ops[i];
        std::optional<uint32_t> value;
        if (dbt::isAluUnary(op.op)) {
            if (auto a = temp_of(op.a))
                value = dbt::evalUnary(op.op, *a);
        } else if (dbt::isAluBinary(op.op)) {
            auto a = temp_of(op.a);
            auto b = temp_of(op.b);
            if (a && b)
                value = dbt::evalBinary(op.op, *a, *b);
        }
        switch (op.op) {
          case UOp::Const:
            value = op.imm;
            break;
          case UOp::GetReg:
            if (op.reg < isa::kNumRegs)
                value = reg[op.reg];
            break;
          case UOp::GetFlag:
            if (op.reg < kNumFlags)
                value = flag[op.reg];
            break;
          case UOp::SetReg:
            if (op.reg < isa::kNumRegs)
                reg[op.reg] = temp_of(op.a);
            break;
          case UOp::SetFlag:
            if (op.reg < kNumFlags)
                flag[op.reg] = temp_of(op.a);
            break;

          case UOp::Load:
          case UOp::In:
            break; // result unknowable statically

          case UOp::S2Op:
            // S2SymReg/S2Concrete rewrite registers, S2SymRange adds
            // constraints... invalidate all machine-state knowledge.
            for (auto &r : reg)
                r.reset();
            for (auto &f : flag)
                f.reset();
            break;

          case UOp::Branch:
            if (auto cond = temp_of(op.a))
                out.branchTarget = *cond ? op.imm : op.imm2;
            break;

          default:
            break; // ALU ops (above); other terminators, Store, Out:
                   // no temp result
        }

        OpEffects e = effectsOf(op);
        if (e.defsTemp && op.dst < temp.size()) {
            temp[op.dst] = value;
            if (value)
                out.result[i] = value;
        }
    }
    return out;
}

} // namespace s2e::analysis
