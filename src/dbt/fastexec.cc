#include "dbt/fastexec.hh"

#include <cstring>

#include "dbt/semantics.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace s2e::dbt {

void
FastMachine::load(const isa::Program &program)
{
    for (const auto &section : program.sections) {
        S2E_ASSERT(section.addr + section.bytes.size() <= mem.size(),
                   "program section at 0x%x overflows RAM", section.addr);
        std::memcpy(mem.data() + section.addr, section.bytes.data(),
                    section.bytes.size());
    }
    pc = program.entry;
}

FastRunResult
fastRun(FastMachine &m, uint64_t max_instructions, TbCache *cache,
        TranslatorConfig translator_config)
{
    Translator translator(translator_config);
    TbCache local_cache;
    if (!cache)
        cache = &local_cache;

    CodeReader reader = [&m](uint32_t addr, uint8_t *out) {
        if (addr >= m.mem.size())
            return false;
        *out = m.mem[addr];
        return true;
    };

    // Wrap-safe: addr + len may overflow 32 bits near 2^32.
    // Out-of-range loads read 0 and out-of-range stores are dropped.
    auto in_bounds = [&m](uint32_t addr, unsigned len) {
        return addr < m.mem.size() && m.mem.size() - addr >= len;
    };

    FastRunResult result;
    std::vector<uint32_t> temps;

    while (result.instructions < max_instructions) {
        if (m.pc >= m.mem.size()) {
            result.finalPc = m.pc;
            return result;
        }
        std::shared_ptr<TranslationBlock> tb = cache->lookup(m.pc, reader);
        if (!tb) {
            tb = translator.translate(m.pc, reader);
            if (tb->instrPcs.empty()) {
                result.finalPc = m.pc;
                return result; // decode fault
            }
            cache->insert(tb, reader);
        }
        result.blocks++;
        result.instructions += tb->instrPcs.size();

        temps.resize(tb->numTemps);
        uint32_t next_pc = m.pc + tb->byteSize;
        bool leave = false;

        for (const MicroOp &op : tb->ops) {
            switch (op.op) {
#define S2E_BINARY_CASE(name)                                            \
              case UOp::name:                                            \
                temps[op.dst] =                                          \
                    evalBinary(UOp::name, temps[op.a], temps[op.b]);     \
                break;
#define S2E_UNARY_CASE(name)                                             \
              case UOp::name:                                            \
                temps[op.dst] = evalUnary(UOp::name, temps[op.a]);       \
                break;
              S2E_ALU_BINARY_UOPS(S2E_BINARY_CASE)
              S2E_ALU_UNARY_UOPS(S2E_UNARY_CASE)
#undef S2E_BINARY_CASE
#undef S2E_UNARY_CASE
              case UOp::Const: temps[op.dst] = op.imm; break;
              case UOp::GetReg: temps[op.dst] = m.regs[op.reg]; break;
              case UOp::SetReg: m.regs[op.reg] = temps[op.a]; break;
              case UOp::GetFlag: temps[op.dst] = m.flags[op.reg]; break;
              case UOp::SetFlag: m.flags[op.reg] = temps[op.a]; break;
              case UOp::Load: {
                uint32_t addr = temps[op.a] + op.imm;
                uint32_t v = 0;
                if (in_bounds(addr, op.size)) {
                    for (unsigned i = 0; i < op.size; ++i)
                        v |= static_cast<uint32_t>(m.mem[addr + i])
                             << (8 * i);
                    if (op.signExt)
                        v = static_cast<uint32_t>(
                            signExtend(v, op.size * 8));
                }
                temps[op.dst] = v;
                break;
              }
              case UOp::Store: {
                uint32_t addr = temps[op.a] + op.imm;
                if (in_bounds(addr, op.size)) {
                    uint32_t v = temps[op.b];
                    for (unsigned i = 0; i < op.size; ++i)
                        m.mem[addr + i] = (v >> (8 * i)) & 0xFF;
                    cache->notifyWrite(addr, op.size);
                }
                break;
              }
              case UOp::In: temps[op.dst] = 0; break;
              case UOp::Out: break;
              case UOp::Goto:
              case UOp::CallDir:
                next_pc = op.imm;
                break;
              case UOp::GotoInd:
              case UOp::Ret:
                next_pc = temps[op.a];
                break;
              case UOp::Branch:
                next_pc = temps[op.a] ? op.imm : op.imm2;
                break;
              case UOp::IntSw:
              case UOp::Halt:
                result.halted = true;
                leave = true;
                break;
              case UOp::IretOp:
                leave = true;
                break;
              case UOp::S2Op:
                break; // S2E opcodes are no-ops in the vanilla machine
            }
            if (leave)
                break;
        }

        // A halted machine keeps the pc of the block that halted, as
        // the engine's halted states (and their witnesses) do.
        if (!result.halted)
            m.pc = next_pc;
        if (leave) {
            result.finalPc = m.pc;
            return result;
        }
    }
    result.finalPc = m.pc;
    return result;
}

} // namespace s2e::dbt
