#include "tools/ddt.hh"

#include "guest/kernel.hh"
#include "guest/layout.hh"
#include "vm/devices.hh"
#include "vm/nic.hh"

namespace s2e::tools {

using core::ConsistencyModel;
using core::ExecutionState;
using guest::DriverKind;

namespace {
/** Plugin-state key for the alloc-failure injection counter. */
const int kAllocFailKey = 0;
} // namespace

isa::Program
driverProgram(DriverKind kind)
{
    return isa::assemble(guest::kernelSource() + guest::driverSource(kind) +
                         guest::driverHarnessSource());
}

vm::MachineConfig
driverMachine(DriverKind kind, const isa::Program &program)
{
    vm::MachineConfig m;
    m.ramSize = guest::kRamSize;
    m.program = program;
    m.deviceSetup = [kind](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
        devices.add(std::make_unique<vm::TimerDevice>());
        std::unique_ptr<vm::NicBase> nic;
        switch (kind) {
          case DriverKind::Dma:
            nic = std::make_unique<vm::DmaNic>();
            break;
          case DriverKind::Pio:
            nic = std::make_unique<vm::PioNic>();
            break;
          case DriverKind::Mmio:
            nic = std::make_unique<vm::MmioNic>();
            break;
          case DriverKind::Ring:
            nic = std::make_unique<vm::RingNic>();
            break;
        }
        nic->injectPacket({0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80});
        devices.add(std::move(nic));
    };
    return m;
}

Ddt::Ddt(DdtConfig config)
    : config_(config), program_(driverProgram(config.driver))
{
    core::EngineConfig engine_config;
    engine_config.model = config_.model;
    engine_config.unitRanges = {
        {guest::kDriverCode, guest::kDriverCodeEnd}};
    auto ports = guest::driverPortRange(config_.driver);
    if (ports.second)
        engine_config.symbolicPortRanges = {ports};
    auto mmio = guest::driverMmioRange(config_.driver);
    if (mmio.second)
        engine_config.symbolicMmioRanges = {mmio};
    engine_config.maxInstructions = config_.maxInstructions;
    engine_config.maxWallSeconds = config_.maxWallSeconds;
    engine_config.maxStatesCreated = config_.maxStates;
    engine_config.numWorkers = config_.numWorkers;
    engine_config.emitWitnesses = config_.emitWitnesses;
    engine_config.witnessDir = config_.witnessDir;
    engine_config.replayWitness = config_.replayWitness;
    engine_config.solverOptions = config_.solverOptions;

    engine_ = std::make_unique<core::Engine>(
        driverMachine(config_.driver, program_), engine_config);

    annotation_ = std::make_unique<plugins::Annotation>(*engine_);

    // Interface annotations install first: their callbacks must run
    // before the MemoryChecker's hooks at shared program counters
    // (the alloc-failure fork must happen before the chunk is
    // recorded, so the failure world never owns it).
    bool model_allows_annotations =
        config_.model == ConsistencyModel::Lc ||
        config_.model == ConsistencyModel::RcOc;
    if (config_.annotations && model_allows_annotations)
        installAnnotations();

    plugins::MemoryChecker::Config mc;
    mc.heapBase = guest::kHeapBase;
    mc.heapEnd = guest::kHeapEnd;
    mc.nullGuardEnd = vm::kIvtBase;
    mc.redzone = guest::kChunkRedzone;
    mc.allocReturnPc = program_.symbol("sys_alloc_done");
    mc.freeEntryPc = program_.symbol("sys_free_entry");
    memChecker_ = std::make_unique<plugins::MemoryChecker>(
        *engine_, *annotation_, mc);

    plugins::DataRaceDetector::Config rc;
    rc.watchBase = guest::kDriverData;
    rc.watchEnd = guest::kDriverDataEnd;
    races_ = std::make_unique<plugins::DataRaceDetector>(*engine_, rc);

    plugins::BugCheck::Config bc;
    bc.panicPc = program_.symbol("kpanic");
    bugCheck_ = std::make_unique<plugins::BugCheck>(*engine_, bc);

    coverage_ = std::make_unique<plugins::CoverageTracker>(
        *engine_,
        std::vector<std::pair<uint32_t, uint32_t>>{
            {guest::kDriverCode, guest::kDriverCodeEnd}});

    plugins::PathKiller::Config pk;
    pk.maxLoopVisits = config_.pathKillerLoopVisits;
    pk.stagnationBlocks = config_.stagnationBlocks;
    pathKiller_ = std::make_unique<plugins::PathKiller>(*engine_,
                                                        *coverage_, pk);

    // Depth-first starves the early configuration siblings when deep
    // hardware-driven subtrees explode; a (seeded, deterministic)
    // random selector balances the tree like the paper's stock
    // priority-based selectors.
    engine_->setSearcher(
        std::make_unique<plugins::RandomSearcher>(config_.searcherSeed));
}

Ddt::~Ddt() = default;

void
Ddt::installAnnotations()
{
    // Local consistency (paper §3.2.2): environment outputs entering
    // the driver become symbolic values constrained by the interface
    // contract. Under RC-OC the constraints are dropped entirely.
    bool constrained = config_.model == ConsistencyModel::Lc;
    core::Engine &eng = *engine_;

    // --- Registry configuration (the MSWinRegistry channel). The
    // config-store *values* the driver reads become symbolic. -----
    auto &state = eng.initialState();
    auto &bld = eng.builder();
    auto symbolic_config = [&](uint32_t key, uint32_t lo, uint32_t hi,
                               const char *name) {
        guest::setConfig(state, bld, key, lo); // claim a slot
        // Find the slot to learn the value address.
        for (unsigned slot = 0; slot < 32; ++slot) {
            uint32_t addr = guest::kConfigStore + slot * 8;
            core::Value k = state.mem.read(addr, 4, bld);
            if (k.isConcrete() && k.concrete() == key) {
                eng.makeMemSymbolic(state, addr + 4, 4, name);
                if (constrained) {
                    core::Value v = state.mem.read(addr + 4, 4, bld);
                    if (v.isSymbolic()) {
                        state.addConstraint(
                            bld.uge(v.expr(), bld.constant(lo, 32)));
                        state.addConstraint(
                            bld.ule(v.expr(), bld.constant(hi, 32)));
                    }
                }
                return;
            }
        }
    };
    symbolic_config(guest::kCfgCardType, 0, 3, "cfg_cardtype");
    symbolic_config(guest::kCfgMacOverride, 0, 1, "cfg_macoverride");
    symbolic_config(guest::kCfgPromiscuous, 0, 1, "cfg_promisc");
    symbolic_config(guest::kCfgMtu, 0, 8192, "cfg_mtu");

    // --- Allocator contract: alloc may return NULL (paper Fig 4's
    // alloc example: λret ∈ {v, FAIL}). Implemented as an eager fork:
    // the child takes the failure return; because this annotation is
    // installed before the MemoryChecker's hook, the failure world
    // never records the chunk. ----------------------------------------
    uint32_t alloc_done = program_.symbol("sys_alloc_done");
    annotation_->at(alloc_done, [](ExecutionState &st, core::Engine &e) {
        // Only inject failures for allocations made *by the unit*:
        // the syscall return pc sits on top of the stack.
        const core::Value &sp = st.cpu.regs[isa::kRegSp];
        if (!sp.isConcrete() || !st.mem.inBounds(sp.concrete(), 4))
            return;
        core::Value caller =
            st.mem.read(sp.concrete(), 4, e.builder());
        if (!caller.isConcrete() || !e.isUnitPc(caller.concrete()))
            return;
        const core::Value &ret = st.cpu.regs[1];
        if (!ret.isConcrete() || ret.concrete() == 0)
            return;
        if (st.pluginState<plugins::CounterState>(&kAllocFailKey)
                ->count++ > 4)
            return; // bound failure-injection depth per path
        ExecutionState *child = e.forkState(st);
        if (!child) {
            // State budget exhausted: the success path continues, the
            // alloc-failure world is skipped. Count it so a sweep can
            // tell "no failure path existed" from "we ran out of room".
            e.stats().add("ddt.alloc_failure_forks_suppressed");
            return;
        }
        child->cpu.regs[1] = core::Value(0u);
    });

    // --- Ioctl arguments: the SetInformation-style symbolic inputs.
    uint32_t ioctl_pc = program_.symbol("drv_ioctl");
    annotation_->at(ioctl_pc, [constrained](ExecutionState &st,
                                            core::Engine &e) {
        e.makeRegSymbolic(st, 1, "ioctl_code",
                          constrained
                              ? std::make_optional(
                                    std::make_pair(1u, 3u))
                              : std::nullopt);
        e.makeRegSymbolic(st, 2, "ioctl_arg",
                          constrained
                              ? std::make_optional(
                                    std::make_pair(0u, 0xFFFFu))
                              : std::nullopt);
    });
}

DdtResult
Ddt::run()
{
    DdtResult result;
    result.run = engine_->run();
    result.pathsExplored = result.run.statesCreated;
    result.solverFailures = result.run.solverFailures;
    result.degradedStates = result.run.degradedStates;

    for (const auto &r : memChecker_->reports()) {
        result.bugs.push_back({r.kind, r.message, r.stateId});
        result.bugKinds.insert(r.kind);
    }
    for (const auto &r : races_->reports()) {
        result.bugs.push_back({r.kind, r.message, r.stateId});
        result.bugKinds.insert(r.kind);
    }
    for (const auto &c : bugCheck_->crashes()) {
        if (c.kind == "kernel-panic") {
            result.bugs.push_back({c.kind, c.message, c.stateId});
            result.bugKinds.insert(c.kind);
        }
    }

    plugins::StaticBlocks blocks = plugins::staticBasicBlocks(
        program_, guest::kDriverCode, guest::kDriverCodeEnd);
    result.driverCoverage = coverage_->coverageFraction(blocks);
    return result;
}

} // namespace s2e::tools
