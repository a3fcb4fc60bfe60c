#include "tools/rev.hh"

#include <chrono>

#include "guest/kernel.hh"
#include "guest/layout.hh"
#include "support/rng.hh"
#include "tools/ddt.hh" // driverProgram / driverMachine helpers
#include "vm/nic.hh"

namespace s2e::tools {

using guest::DriverKind;

size_t
RecoveredCfg::edgeCount() const
{
    size_t n = 0;
    for (const auto &[pc, block] : blocks)
        n += block.successors.size();
    return n;
}

size_t
RecoveredCfg::hardwareOpCount() const
{
    size_t n = 0;
    for (const auto &[pc, block] : blocks)
        n += block.hardwareAccesses.size();
    return n;
}

Rev::Rev(RevConfig config)
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

    engine_ = std::make_unique<core::Engine>(
        driverMachine(config_.driver, program_), engine_config);

    // RC-OC: registry values are unconstrained symbolic.
    auto &state = engine_->initialState();
    auto &bld = engine_->builder();
    for (uint32_t key : {guest::kCfgCardType, guest::kCfgMacOverride,
                         guest::kCfgPromiscuous, guest::kCfgMtu}) {
        guest::setConfig(state, bld, key, 0);
        for (unsigned slot = 0; slot < 32; ++slot) {
            uint32_t addr = guest::kConfigStore + slot * 8;
            core::Value k = state.mem.read(addr, 4, bld);
            if (k.isConcrete() && k.concrete() == key) {
                engine_->makeMemSymbolic(state, addr + 4, 4, "cfg");
                break;
            }
        }
    }

    plugins::ExecutionTracer::Config tc;
    tc.traceBlocks = true;
    tc.tracePortIo = true;
    tc.ranges = {{guest::kDriverCode, guest::kDriverCodeEnd}};
    tracer_ = std::make_unique<plugins::ExecutionTracer>(*engine_, tc);

    coverage_ = std::make_unique<plugins::CoverageTracker>(
        *engine_,
        std::vector<std::pair<uint32_t, uint32_t>>{
            {guest::kDriverCode, guest::kDriverCodeEnd}});

    plugins::PathKiller::Config pk;
    pk.maxLoopVisits = 200;
    pk.stagnationBlocks = config_.stagnationBlocks;
    pathKiller_ = std::make_unique<plugins::PathKiller>(*engine_,
                                                        *coverage_, pk);
}

Rev::~Rev() = default;

RevResult
Rev::run()
{
    RevResult result;
    result.run = engine_->run();
    result.pathsExplored = result.run.statesCreated;

    // Offline CFG reconstruction from the per-path trace fragments.
    auto ingest = [&](const plugins::TraceState &trace) {
        result.droppedTraceEntries += trace.dropped;
        uint32_t prev = 0;
        bool have_prev = false;
        for (const auto &entry : trace.entries) {
            switch (entry.kind) {
              case plugins::TraceEntry::Kind::Block: {
                auto &block = result.cfg.blocks[entry.pc];
                block.pc = entry.pc;
                block.timesObserved++;
                if (have_prev)
                    result.cfg.blocks[prev].successors.insert(entry.pc);
                prev = entry.pc;
                have_prev = true;
                break;
              }
              case plugins::TraceEntry::Kind::PortIn:
              case plugins::TraceEntry::Kind::PortOut:
                if (have_prev)
                    result.cfg.blocks[prev].hardwareAccesses.insert(
                        {entry.addr,
                         entry.kind ==
                             plugins::TraceEntry::Kind::PortOut});
                break;
              default:
                break;
            }
        }
    };
    for (const auto &[state_id, trace] : tracer_->finishedTraces())
        ingest(trace);
    // States still alive at budget exhaustion also carry traces.
    for (const auto &s : engine_->allStates()) {
        const plugins::TraceState *trace = tracer_->traceOf(*s);
        if (trace && s->status == core::StateStatus::BudgetExceeded)
            ingest(*trace);
    }
    if (result.droppedTraceEntries > 0)
        warn("tracer dropped %llu entries at the per-path cap; the "
             "recovered CFG is built from truncated traces",
             static_cast<unsigned long long>(result.droppedTraceEntries));

    plugins::StaticBlocks blocks = plugins::staticBasicBlocks(
        program_, guest::kDriverCode, guest::kDriverCodeEnd);
    result.driverCoverage = coverage_->coverageFraction(blocks);
    result.coverageTimeline = coverage_->timeline();

    // Static-vs-dynamic CFG diff. The static half starts from the
    // driver ABI symbols a disassembler would get from the binary's
    // export table; drv_isr is intentionally absent — its address is
    // written into the IVT at runtime, so static recursive descent
    // cannot see it. Every ISR block the diff reports as dynamic-only
    // is a block multi-path execution alone discovered.
    std::vector<uint32_t> entries;
    for (const char *sym :
         {"drv_init", "drv_send", "drv_recv", "drv_ioctl", "drv_unload"})
        if (auto it = program_.symbols.find(sym);
            it != program_.symbols.end())
            entries.push_back(it->second);
    result.staticCfg = analysis::recoverStaticCfg(
        program_, entries, guest::kDriverCode, guest::kDriverCodeEnd);
    std::set<uint32_t> dynamic_pcs;
    for (const auto &[pc, block] : result.cfg.blocks)
        dynamic_pcs.insert(pc);
    result.cfgDiff = analysis::diffCfg(result.staticCfg, dynamic_pcs);
    return result;
}

std::string
Rev::synthesizeDriver(const RecoveredCfg &cfg, const std::string &name)
{
    std::string out;
    out += strprintf("// %s: synthesized driver (%zu blocks, %zu edges, "
                     "%zu hardware ops)\n",
                     name.c_str(), cfg.blockCount(), cfg.edgeCount(),
                     cfg.hardwareOpCount());
    out += strprintf("void %s_driver(void) {\n", name.c_str());
    for (const auto &[pc, block] : cfg.blocks) {
        out += strprintf("  bb_%x: // observed %llu times\n", pc,
                         static_cast<unsigned long long>(
                             block.timesObserved));
        for (const auto &[port, is_write] : block.hardwareAccesses) {
            if (is_write)
                out += strprintf("    hw_write(0x%x, ...);\n", port);
            else
                out += strprintf("    (void)hw_read(0x%x);\n", port);
        }
        if (block.successors.empty()) {
            out += "    return;\n";
        } else {
            out += "    goto_one_of(";
            bool first = true;
            for (uint32_t succ : block.successors) {
                out += strprintf("%sbb_%x", first ? "" : ", ", succ);
                first = false;
            }
            out += ");\n";
        }
    }
    out += "}\n";
    return out;
}

RevNicBaselineResult
runRevNicBaseline(DriverKind kind, double max_wall_seconds,
                  uint64_t max_instructions, uint64_t seed)
{
    RevNicBaselineResult result;
    Rng rng(seed);
    isa::Program program = driverProgram(kind);
    plugins::StaticBlocks blocks = plugins::staticBasicBlocks(
        program, guest::kDriverCode, guest::kDriverCodeEnd);

    std::set<uint32_t> covered;
    auto start = std::chrono::steady_clock::now();
    uint64_t instructions_used = 0;

    while (true) {
        double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        if (elapsed > max_wall_seconds ||
            instructions_used > max_instructions)
            break;

        core::EngineConfig config;
        config.model = core::ConsistencyModel::ScCe;
        config.maxInstructions = 200'000;
        core::Engine engine(driverMachine(kind, program), config);

        // Fuzz the registry and the inbound packet.
        auto &state = engine.initialState();
        auto &bld = engine.builder();
        guest::setConfig(state, bld, guest::kCfgCardType,
                         static_cast<uint32_t>(rng.below(6)));
        guest::setConfig(state, bld, guest::kCfgMacOverride,
                         static_cast<uint32_t>(rng.below(2)));
        guest::setConfig(state, bld, guest::kCfgPromiscuous,
                         static_cast<uint32_t>(rng.below(2)));
        guest::setConfig(state, bld, guest::kCfgMtu,
                         static_cast<uint32_t>(rng.below(10000)));
        auto *nic = dynamic_cast<vm::NicBase *>(
            state.devices.byName(guest::driverDeviceName(kind)));
        if (nic) {
            std::vector<uint8_t> pkt(1 + rng.below(32));
            for (auto &byte : pkt)
                byte = static_cast<uint8_t>(rng.next());
            nic->injectPacket(std::move(pkt));
        }

        plugins::CoverageTracker coverage(
            engine, {{guest::kDriverCode, guest::kDriverCodeEnd}});
        core::RunResult run = engine.run();
        instructions_used += run.totalInstructions;
        result.trials++;

        for (uint32_t start_pc : blocks.starts)
            if (coverage.isCovered(start_pc))
                covered.insert(start_pc);
        double t = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
        result.coverageTimeline.emplace_back(t, covered.size());
    }

    result.driverCoverage =
        blocks.count() == 0
            ? 0.0
            : static_cast<double>(covered.size()) /
                  static_cast<double>(blocks.count());
    return result;
}

} // namespace s2e::tools
