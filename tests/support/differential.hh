/**
 * @file
 * The differential harness shared by the engine suites (parallel,
 * incremental, lifecycle, replay): one engine configuration with the
 * schedule-dependent features off, one per-path fingerprint keyed by
 * the deterministic path id, the comparison of two runs' path sets,
 * and the 512-path fork-storm guest program.
 *
 * Two runs explored the same paths iff their pathFingerprints() maps
 * are equal; expectSamePathSets() reports every missing, extra or
 * diverging path.
 */

#ifndef S2E_TESTS_SUPPORT_DIFFERENTIAL_HH
#define S2E_TESTS_SUPPORT_DIFFERENTIAL_HH

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/engine.hh"
#include "expr/eval.hh"
#include "guest/layout.hh"
#include "vm/devices.hh"
#include "vm/nic.hh"

namespace s2e::core::difftest {

/** A guest machine with console, timer and DMA NIC devices. */
inline vm::MachineConfig
machineFor(const std::string &source, uint32_t ram = guest::kRamSize,
           bool loopback = false)
{
    vm::MachineConfig m;
    m.ramSize = ram;
    m.program = isa::assemble(source);
    m.deviceSetup = [loopback](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
        devices.add(std::make_unique<vm::TimerDevice>());
        auto nic = std::make_unique<vm::DmaNic>();
        nic->setLoopback(loopback);
        devices.add(std::move(nic));
    };
    return m;
}

/**
 * Engine configuration for differential runs: no budgets (a budget
 * kills whichever paths happen to be alive when it trips, which is
 * scheduling-dependent) and no model cache (a cached model makes
 * getValue() answers depend on query history, which differs between
 * schedules).
 */
inline EngineConfig
differentialConfig(unsigned workers)
{
    EngineConfig config;
    config.numWorkers = workers;
    config.solverOptions.useModelCache = false;
    return config;
}

inline std::string
consoleOf(const ExecutionState &state)
{
    auto *console = state.devices.get<vm::ConsoleDevice>("console");
    return console ? console->output() : "";
}

inline std::string
valueRepr(const Value &v)
{
    if (v.isConcrete())
        return strprintf("%x", v.concrete());
    return v.expr()->toString();
}

inline void
collectVarsByName(ExprRef e, std::set<ExprRef> &visited,
                  std::map<std::string, ExprRef> &vars)
{
    if (!visited.insert(e).second)
        return;
    if (e->isVariable()) {
        vars.emplace(e->name(), e);
        return;
    }
    for (unsigned i = 0; i < e->arity(); ++i)
        collectVarsByName(e->kid(i), visited, vars);
}

/** FNV-1a over the full guest memory; symbolic bytes hash the
 *  rendered byte expression (variable names are deterministic). */
inline uint64_t
memoryDigest(const ExecutionState &state, ExprBuilder &builder)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint8_t byte) {
        h ^= byte;
        h *= 1099511628211ull;
    };
    for (uint32_t addr = 0; addr < state.mem.size(); ++addr) {
        uint8_t byte = 0;
        if (state.mem.readConcreteByte(addr, &byte)) {
            mix(byte);
        } else {
            mix(0xFF); // symbolic marker
            for (char c : state.mem.byteExpr(addr, builder)->toString())
                mix(static_cast<uint8_t>(c));
        }
    }
    return h;
}

/** The solver-generated test case: one concrete value per variable
 *  referenced by the path constraints, sorted by variable name. */
inline std::string
testCaseOf(const ExecutionState &state, ExprBuilder &builder)
{
    std::map<std::string, ExprRef> vars;
    std::set<ExprRef> visited;
    for (ExprRef c : state.constraints)
        collectVarsByName(c, visited, vars);
    if (vars.empty())
        return "none";

    solver::SolverOptions options;
    options.useModelCache = false;
    solver::Solver solver(builder, options);
    expr::Assignment model;
    auto outcome = solver.getInitialValues(state.constraints, &model);
    if (!outcome.isSat())
        return "unsat";
    std::string out;
    for (const auto &[name, var] : vars)
        out += strprintf("%s=%llx,", name.c_str(),
                         static_cast<unsigned long long>(
                             model.lookup(var->varId())));
    return out;
}

/**
 * Fingerprint every path of a finished run, keyed by the
 * schedule-independent path id: terminal status, final registers and
 * flags, a memory digest, console output and the solver-generated
 * test case.
 */
inline std::map<std::string, std::string>
pathFingerprints(Engine &engine)
{
    std::map<std::string, std::string> out;
    for (const auto &s : engine.allStates()) {
        std::string fp = strprintf("status:%s exit:%u msg:%s\n",
                                   stateStatusName(s->status), s->exitCode,
                                   s->statusMessage.c_str());
        fp += "console:" + consoleOf(*s) + "\n";
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            fp += strprintf("r%u:%s\n", r,
                            valueRepr(s->cpu.regs[r]).c_str());
        for (unsigned f = 0; f < 4; ++f)
            fp += strprintf("f%u:%s\n", f,
                            valueRepr(s->cpu.flags[f]).c_str());
        // A state killed while spilled (SpillFailure, budget) has no
        // pages to digest; its payload lives only in the dropped image.
        if (s->spilled)
            fp += "mem:<spilled>\n";
        else
            fp += strprintf("mem:%llx\n",
                            static_cast<unsigned long long>(
                                memoryDigest(*s, engine.builder())));
        fp += "tc:" + testCaseOf(*s, engine.builder()) + "\n";
        bool fresh = out.emplace(s->pathId(), std::move(fp)).second;
        EXPECT_TRUE(fresh) << "duplicate path id " << s->pathId();
    }
    return out;
}

/** Report every path missing from, extra in or diverging in `run`
 *  against `oracle`; `what` names the run in failure messages. */
inline void
expectSamePathSets(const std::map<std::string, std::string> &oracle,
                   const std::map<std::string, std::string> &run,
                   const std::string &what)
{
    EXPECT_EQ(oracle.size(), run.size()) << what << ": path count";
    for (const auto &[path, fp] : oracle) {
        auto it = run.find(path);
        if (it == run.end()) {
            ADD_FAILURE() << what << ": path " << path << " missing";
            continue;
        }
        EXPECT_EQ(fp, it->second)
            << what << ": path " << path << " diverged";
    }
    for (const auto &[path, fp] : run)
        if (!oracle.count(path))
            ADD_FAILURE() << what << ": path " << path << " extra";
}

/** High-fork-rate stress: nine independent symbolic branch bits fork
 *  2^9 = 512 paths, each then doing a short private work loop. */
inline const char *
stressSource()
{
    return R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r5, 0
        testi r1, 1
        jeq b1
        ori r5, 1
    b1: testi r1, 2
        jeq b2
        ori r5, 2
    b2: testi r1, 4
        jeq b3
        ori r5, 4
    b3: testi r1, 8
        jeq b4
        ori r5, 8
    b4: testi r1, 16
        jeq b5
        ori r5, 16
    b5: testi r1, 32
        jeq b6
        ori r5, 32
    b6: testi r1, 64
        jeq b7
        ori r5, 64
    b7: testi r1, 128
        jeq b8
        ori r5, 128
    b8: testi r1, 256
        jeq b9
        ori r5, 256
    b9: movi r3, 0
        movi r4, 0
    work:
        add r3, r5
        addi r4, 1
        cmpi r4, 20
        jne work
        hlt
    )";
}

} // namespace s2e::core::difftest

#endif // S2E_TESTS_SUPPORT_DIFFERENTIAL_HH
