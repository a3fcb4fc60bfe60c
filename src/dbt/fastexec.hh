/**
 * @file
 * "Vanilla" concrete executor: interprets translation blocks over raw
 * uint32 temporaries and a flat byte array, with no symbolic checks,
 * devices, interrupts or state forking.
 *
 * This is the baseline for the §6.2 overhead experiment — it plays
 * the role of vanilla QEMU against which S2E's concrete-mode and
 * symbolic-mode slowdowns are measured.
 */

#ifndef S2E_DBT_FASTEXEC_HH
#define S2E_DBT_FASTEXEC_HH

#include <cstdint>
#include <vector>

#include "dbt/translator.hh"
#include "isa/assembler.hh"

namespace s2e::dbt {

/** Result of a fast run. */
struct FastRunResult {
    uint64_t instructions = 0;
    uint64_t blocks = 0;
    bool halted = false;
    uint32_t finalPc = 0;
};

/** Flat machine: registers, flags, memory. No I/O, no interrupts. */
class FastMachine
{
  public:
    explicit FastMachine(uint32_t ram_size) : mem(ram_size, 0) {}

    uint32_t regs[isa::kNumRegs] = {0};
    uint32_t flags[4] = {0}; ///< Z N C V as 0/1
    uint32_t pc = 0;
    std::vector<uint8_t> mem;

    /** Load a program image. */
    void load(const isa::Program &program);
};

/**
 * Run until Halt, an out-of-range pc, or the instruction budget is
 * exhausted. Port I/O reads as 0 and writes are ignored; software
 * interrupts halt (the fast machine models no kernel). A load outside
 * RAM reads 0 and a store outside RAM is dropped. After a halt, pc is
 * the start of the block that halted.
 */
FastRunResult fastRun(FastMachine &machine, uint64_t maxInstructions,
                      TbCache *cache = nullptr,
                      TranslatorConfig translatorConfig = {});

} // namespace s2e::dbt

#endif // S2E_DBT_FASTEXEC_HH
