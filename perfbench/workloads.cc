#include "workloads.hh"

#include <stdexcept>
#include <utility>

#include "support/logging.hh"
#include "support/rng.hh"
#include "vm/devices.hh"

using namespace s2e;

namespace perfbench {

vm::MachineConfig
smallMachine(const isa::Program &program)
{
    vm::MachineConfig m;
    m.ramSize = 64 * 1024;
    m.program = program;
    m.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
    };
    return m;
}

std::string
symAluSource(uint64_t seed, bool symbolic)
{
    // The seed picks the concrete start values, a constant mixed into
    // r2 and which bit of r1 the forking tail tests; the instruction
    // count does not depend on it.
    Rng rng(seed);
    uint32_t r1 = 1 + static_cast<uint32_t>(rng.below(0xffff));
    uint32_t r2 = 1 + static_cast<uint32_t>(rng.below(0xffff));
    uint32_t mix = 1 + static_cast<uint32_t>(rng.below(0xffff));
    uint32_t tail_bit = 1u << rng.below(8);
    std::string inject = symbolic ? "        s2e_symreg r1\n"
                                    "        s2e_symreg r2\n"
                                  : "";
    return strprintf(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, %u
        movi r2, %u
)",
                     r1, r2) +
           inject +
           strprintf(R"(
        xori r2, %u
        movi r7, 0
        add r7, r1            ; pristine copy of r1 for the tail
        movi r10, %u
    loop:
        add r1, r2
        xor r2, r1
        shli r1, 3
        shri r1, 1
        mul r2, r1
        or r1, r2
        and r2, r1
        sub r1, r2
        subi r10, 1
        cmpi r10, 0
        jne loop
        testi r7, %u          ; forks: two paths
        jeq t1
        ori r6, 1
    t1: testi r7, %u          ; re-test, decided statically
        jeq t2
        ori r6, 2
    t2: hlt
    )",
                     mix, kSymAluIterations, tail_bit, tail_bit);
}

Session::Session(const std::string &workload, uint64_t seed,
                 uint64_t searcher_seed)
{
    if (workload == "sym_alu") {
        program_ = isa::assemble(symAluSource(seed, true));
        engine_ = std::make_unique<core::Engine>(smallMachine(program_),
                                                 core::EngineConfig{});
    } else if (workload == "ddt_pcnet") {
        tools::DdtConfig config;
        config.driver = guest::DriverKind::Dma;
        config.model = core::ConsistencyModel::Lc;
        config.annotations = true;
        config.maxStates = kDdtMaxStates;
        config.maxWallSeconds = 0;
        config.maxInstructions = 0;
        config.emitWitnesses = true;
        config.searcherSeed = searcher_seed;
        ddt_ = std::make_unique<tools::Ddt>(config);
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
}

const isa::Program &
Session::program()
{
    // The Ddt assembles its own copy; the ladder's copy is made on
    // demand so it stays out of the timed set-up.
    if (ddt_ && program_.sections.empty())
        program_ = tools::driverProgram(guest::DriverKind::Dma);
    return program_;
}

core::Engine &
Session::engine()
{
    return ddt_ ? ddt_->engine() : *engine_;
}

core::RunResult
Session::explore(std::vector<tools::DdtBug> *bugs)
{
    if (!ddt_)
        return engine_->run();
    tools::DdtResult r = ddt_->run();
    if (bugs)
        *bugs = std::move(r.bugs);
    return r.run;
}

} // namespace perfbench
