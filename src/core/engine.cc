#include "core/engine.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include <unistd.h>

#include <fstream>

#include "core/lifecycle/checkpoint.hh"
#include "core/lifecycle/merge.hh"
#include "core/lifecycle/serializer.hh"
#include "core/replay/extract.hh"
#include "core/replay/replayer.hh"
#include "dbt/semantics.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace s2e::core {

using dbt::MicroOp;
using dbt::UOp;

/**
 * Everything a worker thread needs that cannot be shared: the solver
 * (stateful: model cache, RNG, telemetry), the phase profiler (a span
 * stack is inherently per-thread), and an L1 translation-block cache
 * that makes the TB lookup hot path lock-free — it is flushed whenever
 * the shared TbCache's generation counter moves (self-modifying code).
 */
struct Engine::WorkerContext {
    WorkerContext(unsigned worker_id, ExprBuilder &builder,
                  const EngineConfig &config)
        : id(worker_id), solver(builder, config.solverOptions),
          profiler(config.profileExecution),
          witnessSolver(builder, config.solverOptions, &profiler)
    {
        solver.setProfiler(&profiler);
    }

    unsigned id;
    solver::Solver solver;
    obs::PhaseProfiler profiler;
    replay::WitnessSolver witnessSolver;
    /** pc -> canonical block, valid only for blocks whose pages were
     *  never written and only while tbGeneration is current. */
    std::unordered_map<uint32_t, std::shared_ptr<dbt::TranslationBlock>>
        tbL1;
    uint64_t tbGeneration = 0;
    double busySeconds = 0;
    /** Engine::asyncKills_ as of this worker's last sweep. */
    uint64_t asyncKillsSeen = 0;
};

thread_local Engine::WorkerContext *Engine::tlsWorker_ = nullptr;

solver::Solver &
Engine::curSolver()
{
    return tlsWorker_ ? tlsWorker_->solver : solver_;
}

obs::PhaseProfiler &
Engine::curProfiler()
{
    return tlsWorker_ ? tlsWorker_->profiler : profiler_;
}

namespace {

/** Default scheduling policy: depth-first (run the newest state). */
class DfsSearcher : public Searcher
{
  public:
    const char *name() const override { return "dfs"; }
    ExecutionState *
    select(const std::vector<ExecutionState *> &active) override
    {
        return active.back();
    }
};

} // namespace

ExprRef
lowerAlu(UOp op, ExprRef a, ExprRef b, ExprBuilder &bld)
{
    switch (op) {
      case UOp::Add: return bld.add(a, b);
      case UOp::Sub: return bld.sub(a, b);
      case UOp::Mul: return bld.mul(a, b);
      case UOp::UDiv: return bld.udiv(a, b);
      case UOp::SDiv: return bld.sdiv(a, b);
      case UOp::URem: return bld.urem(a, b);
      case UOp::SRem: return bld.srem(a, b);
      case UOp::And: return bld.bAnd(a, b);
      case UOp::Or: return bld.bOr(a, b);
      case UOp::Xor: return bld.bXor(a, b);
      case UOp::Shl: return bld.shl(a, b);
      case UOp::Shr: return bld.lshr(a, b);
      case UOp::Sar: return bld.ashr(a, b);
      case UOp::Not: return bld.bNot(a);
      case UOp::Neg: return bld.neg(a);
      case UOp::CmpEq: return bld.zext(bld.eq(a, b), 32);
      case UOp::CmpUlt: return bld.zext(bld.ult(a, b), 32);
      case UOp::CmpSlt: return bld.zext(bld.slt(a, b), 32);
      default:
        panic("lowerAlu: uop %u is not an ALU op",
              static_cast<unsigned>(op));
    }
}

Engine::Engine(vm::MachineConfig machine, EngineConfig config)
    : machine_(std::move(machine)), config_(config),
      policy_(policyFor(config.model)), builder_(),
      solver_(builder_, config.solverOptions),
      profiler_(config.profileExecution),
      concretizationSites_(stats_, "engine.concretizations"),
      degradeSites_(stats_, "engine.solver_degraded"),
      solverFailureSites_(stats_, "engine.solver_failures"),
      translator_(dbt::TranslatorConfig{
          .optimize = config.optimizeTb,
          .verify = config.verifyTb,
      }),
      searcher_(std::make_unique<DfsSearcher>())
{
    config_.numWorkers = std::max(1u, config_.numWorkers);

    // Register every per-event counter once; the run loop then updates
    // them through plain pointers (no string build, no map lookup).
    hot_.translations = &stats_.counterSlot("engine.translations");
    hot_.instructions = &stats_.counterSlot("engine.instructions");
    hot_.forks = &stats_.counterSlot("engine.forks");
    hot_.forksSuppressedBudget =
        &stats_.counterSlot("engine.forks_suppressed_budget");
    hot_.forksSuppressedDegraded =
        &stats_.counterSlot("engine.forks_suppressed_degraded");
    hot_.cfgForks = &stats_.counterSlot("engine.cfg_forks");
    hot_.envBranchConcretizations =
        &stats_.counterSlot("engine.env_branch_concretizations");
    hot_.symValuesCreated =
        &stats_.counterSlot("engine.symbolic_values_created");
    hot_.symPointerLoads =
        &stats_.counterSlot("engine.symbolic_pointer_loads");
    hot_.symPointerStores =
        &stats_.counterSlot("engine.symbolic_pointer_stores");
    hot_.symPointerWindowConstrained =
        &stats_.counterSlot("engine.symbolic_pointer_window_constrained");
    hot_.symPointerMaxWindow =
        &stats_.counterSlot("engine.symbolic_pointer_max_window");
    hot_.symbolicHardwareReads =
        &stats_.counterSlot("engine.symbolic_hardware_reads");
    hot_.dmaConcretizations =
        &stats_.counterSlot("engine.dma_concretizations");
    hot_.interruptsDelivered =
        &stats_.counterSlot("engine.interrupts_delivered");
    hot_.solverDegraded = &stats_.counterSlot("engine.solver_degraded");
    hot_.solverFailures = &stats_.counterSlot("engine.solver_failures");
    hot_.memoryHighWatermark =
        &stats_.counterSlot("engine.memory_high_watermark");
    hot_.maxActiveStates = &stats_.counterSlot("engine.max_active_states");
    hot_.uopsExecuted = &stats_.counterSlot("engine.uops_executed");
    hot_.uopsPreOpt = &stats_.counterSlot("engine.uops_pre_opt");
    hot_.statesMerged = &stats_.counterSlot("engine.states_merged");
    hot_.statesSpilled = &stats_.counterSlot("engine.states_spilled");
    hot_.statesRestored = &stats_.counterSlot("engine.states_restored");
    hot_.spillBytes = &stats_.counterSlot("engine.spill_bytes");
    hot_.spillRetries = &stats_.counterSlot("engine.spill_retries");
    hot_.spillWriteFailures =
        &stats_.counterSlot("engine.spill_write_failures");
    hot_.residentStatesPeak =
        &stats_.counterSlot("engine.resident_states_peak");
    hot_.witnessesEmitted = &stats_.counterSlot("engine.witnesses_emitted");
    hot_.witnessExtractFailures =
        &stats_.counterSlot("engine.witness_extract_failures");
    hot_.witnessesSkipped =
        &stats_.counterSlot("engine.witnesses_skipped");
    hot_.witnessComponentSolves =
        &stats_.counterSlot("engine.witness_component_solves");
    hot_.witnessComponentHits =
        &stats_.counterSlot("engine.witness_component_hits");
    hot_.witnessBacklogPeak =
        &stats_.counterSlot("engine.witness.backlog_peak");
    hot_.witnessExtractSeconds =
        &stats_.timerSlot("engine.witness.extract_s");
    hot_.replayDivergences =
        &stats_.counterSlot("engine.replay_divergences");
    solver_.setProfiler(&profiler_);

    if (config_.replayWitness) {
        // Replay mode: one concrete path re-executed serially with the
        // solver disconnected. Budgets, merging and emission are
        // meaningless here (and budget kills would land at
        // schedule-dependent points); the witness's own terminal
        // instruction count bounds the run via the overrun check.
        config_.numWorkers = 1;
        config_.emitWitnesses = false;
        config_.enableMergePoints = false;
        config_.maxStatesCreated = 0;
        config_.maxInstructions = 0;
        config_.maxWallSeconds = 0;
        config_.maxResidentBytes = 0;
        replayCursor_ =
            std::make_unique<replay::ReplayCursor>(config_.replayWitness);
    }
    // RC-CC runs (ignoreFeasibility) deliberately keep infeasible
    // paths alive — there is no model to extract a witness from.
    recording_ = config_.emitWitnesses && !policy_.ignoreFeasibility;

    serializer_ = std::make_unique<lifecycle::StateSerializer>(builder_);
    // The spill store is constructed up front (workers would otherwise
    // race a lazy init); its directory is only created on first write
    // and removed with the engine.
    std::string spill_dir = config_.spillDir;
    if (spill_dir.empty())
        spill_dir = (std::filesystem::temp_directory_path() /
                     strprintf("s2e-spill-%ld-%p",
                               static_cast<long>(::getpid()),
                               static_cast<void *>(this)))
                        .string();
    spillStore_ = std::make_unique<lifecycle::SpillStore>(
        spill_dir, config_.spillFaults);

    auto initial = std::make_unique<ExecutionState>(machine_.ramSize,
                                                    [this] {
                                                        vm::DeviceSet set;
                                                        if (machine_.deviceSetup)
                                                            machine_.deviceSetup(set);
                                                        return set;
                                                    }());
    initial->setId(nextStateId_++);
    initial->mem.loadProgram(machine_.program);
    initial->cpu.pc = machine_.program.entry;
    states_.push_back(std::move(initial));
    addActive(*states_.back());
    // Root checkpoint: freezes the loaded program image, so the first
    // fork's page delta is empty and a spilled never-forked state
    // serializes only what it wrote after load.
    lifecycle::takeCheckpoint(*states_.back());
    residentInc();
    if (replayCursor_)
        replayCursor_->setLeaf(states_.back().get());
}

Engine::~Engine() = default;

void
Engine::setSearcher(std::unique_ptr<Searcher> searcher)
{
    S2E_ASSERT(searcher != nullptr, "null searcher");
    std::lock_guard<std::mutex> lock(statesMutex_);
    std::lock_guard<std::mutex> searcher_lock(searcherMutex_);
    searcher_ = std::move(searcher);
    for (ExecutionState *s : active_)
        searcher_->stateAdded(*s);
}

void
Engine::addActive(ExecutionState &state)
{
    state.activeSlot = active_.size();
    active_.push_back(&state);
    Stats::raiseTo(*hot_.maxActiveStates, active_.size());
}

void
Engine::removeActive(ExecutionState &state)
{
    size_t slot = state.activeSlot;
    S2E_ASSERT(slot < active_.size() && active_[slot] == &state,
               "state %d is not in the active set", state.id());
    active_[slot] = active_.back();
    active_[slot]->activeSlot = slot;
    active_.pop_back();
}

ExecutionState &
Engine::initialState()
{
    return *states_.front();
}

std::vector<ExecutionState *>
Engine::activeStates() const
{
    std::lock_guard<std::mutex> lock(statesMutex_);
    return active_;
}

bool
Engine::isUnitPc(uint32_t pc) const
{
    if (config_.unitRanges.empty())
        return true;
    for (const auto &[lo, hi] : config_.unitRanges)
        if (pc >= lo && pc < hi)
            return true;
    return false;
}

dbt::CodeReader
Engine::codeReaderFor(ExecutionState &state)
{
    return [&state](uint32_t addr, uint8_t *out) {
        return state.mem.readConcreteByte(addr, out);
    };
}

vm::DeviceBus
Engine::deviceBusFor(ExecutionState &state)
{
    vm::DeviceBus bus;
    bus.readMem = [this, &state](uint32_t addr) -> uint8_t {
        if (!state.mem.inBounds(addr, 1))
            return 0;
        uint8_t byte = 0;
        if (state.mem.readConcreteByte(addr, &byte))
            return byte;
        // DMA read of a symbolic byte: concretize in place (the
        // device is part of the concrete domain).
        ExprRef e = state.mem.byteExpr(addr, builder_);
        uint64_t raw = 0;
        auto v = curSolver().getValue(state.constraints,
                                      builder_.zext(e, 32), &raw);
        if (v.isUnknown()) {
            solverFailState(state, "dma_read", v,
                            "solver gave up concretizing a DMA read");
            return 0;
        }
        if (v.isUnsat()) {
            killState(state, StateStatus::Unsat,
                      "unsatisfiable constraints at DMA read");
            return 0;
        }
        uint8_t cv = static_cast<uint8_t>(raw);
        state.addConstraint(
            builder_.eq(e, builder_.constant(cv, 8)));
        state.mem.writeConcreteByte(addr, cv);
        Stats::bump(*hot_.dmaConcretizations);
        return cv;
    };
    bus.writeMem = [this, &state](uint32_t addr, uint8_t value) {
        if (!state.mem.inBounds(addr, 1))
            return;
        state.mem.writeConcreteByte(addr, value);
        if (tbCache_.overlapsCode(addr, 1))
            tbCache_.notifyWrite(addr, 1);
        // DMA writes are memory accesses too: analyzers (e.g. the
        // MemoryChecker catching device overruns) need to see them.
        if (!events_.onMemoryAccess.empty()) {
            MemAccessInfo info{addr, 1, true, false, nullptr};
            events_.onMemoryAccess.emit(state, info);
        }
    };
    bus.raiseIrq = [&state](unsigned irq) {
        state.cpu.pendingIrqs |= 1u << irq;
    };
    return bus;
}

std::shared_ptr<dbt::TranslationBlock>
Engine::fetchBlock(ExecutionState &state)
{
    dbt::CodeReader reader = codeReaderFor(state);

    // Worker L1: lock-free hit path over the shared cache. Entries
    // only exist for blocks on never-written pages, and the whole L1
    // is dropped when the shared cache's generation moves (another
    // state invalidated translations).
    WorkerContext &w = *tlsWorker_;
    uint64_t gen = tbCache_.generation();
    if (gen != w.tbGeneration) {
        w.tbL1.clear();
        w.tbGeneration = gen;
    }
    auto it = w.tbL1.find(state.cpu.pc);
    if (it != w.tbL1.end())
        return it->second;

    bool clean = false;
    auto tb = tbCache_.lookup(state.cpu.pc, reader, &clean);
    if (tb) {
        if (clean)
            w.tbL1.emplace(state.cpu.pc, tb);
        return tb;
    }

    obs::PhaseSpan span(curProfiler(), obs::Phase::Translate);
    tb = translator_.translateRaw(state.cpu.pc, reader);
    Stats::bump(*hot_.translations);
    if (tb->instrPcs.empty())
        return tb; // decode fault; caller handles

    // onInstrTranslation: let plugins inspect and mark instructions.
    bool any_marked = false;
    if (!events_.onInstrTranslation.empty()) {
        for (size_t i = 0; i < tb->instrPcs.size(); ++i) {
            uint8_t buf[10];
            size_t avail = 0;
            for (; avail < sizeof(buf); ++avail)
                if (!reader(tb->instrPcs[i] +
                                static_cast<uint32_t>(avail),
                            &buf[avail]))
                    break;
            isa::Instruction instr;
            if (!isa::decode(buf, avail, instr))
                continue;
            bool mark = false;
            events_.onInstrTranslation.emit(state, tb->instrPcs[i], instr,
                                            &mark);
            if (mark) {
                tb->marked[i] = true;
                any_marked = true;
            }
        }
    }
    // A mark means a hook fires at that instruction boundary and may
    // read or rewrite registers and flags mid-block — state the
    // optimization passes assume only the block's own ops touch. Keep
    // hooked blocks naive; optimize the rest.
    if (!any_marked)
        translator_.optimizeBlock(*tb);
    // Canonical insert: if another worker raced us to translate this
    // pc, adopt its block so every worker executes the same object.
    tb = tbCache_.insert(tb, reader, &clean);
    if (clean)
        w.tbL1.emplace(state.cpu.pc, tb);
    return tb;
}

ExprRef
Engine::makeRegSymbolic(ExecutionState &state, unsigned reg,
                        const std::string &name,
                        std::optional<std::pair<uint32_t, uint32_t>> range)
{
    S2E_ASSERT(reg < isa::kNumRegs, "bad register %u", reg);
    if (!policy_.symbolicInputsEnabled) {
        // SC-CE: inputs stay concrete; return the current value.
        return state.cpu.regs[reg].toExpr(builder_);
    }
    if (replayCursor_) {
        // Substitute the recorded concrete input; no variable, no
        // constraints (the witness assignment satisfies them all).
        auto v = replaySubstitute(state, replay::SiteKind::SymReg, reg, 0);
        if (v)
            state.cpu.regs[reg] = Value(static_cast<uint32_t>(*v));
        return state.cpu.regs[reg].toExpr(builder_);
    }
    ExprRef var = builder_.var(symName(state, name), 32);
    if (range) {
        state.addConstraint(
            builder_.uge(var, builder_.constant(range->first, 32)));
        state.addConstraint(
            builder_.ule(var, builder_.constant(range->second, 32)));
    }
    state.cpu.regs[reg] = Value(var);
    Stats::bump(*hot_.symValuesCreated);
    recordEvent(state, replay::SiteKind::SymReg, state.cpu.pc, reg, 0,
                {var->name()});
    return var;
}

void
Engine::makeMemSymbolic(ExecutionState &state, uint32_t addr, uint32_t len,
                        const std::string &name)
{
    if (!policy_.symbolicInputsEnabled)
        return;
    if (replayCursor_) {
        // Substitute the recorded bytes (vars may be shorter than len
        // when the original call ran out of bounds mid-range).
        const replay::NondetEvent *ev = replayCursor_->expect(
            replay::SiteKind::SymMem, state.instrCount, state.cpu.pc,
            addr, len);
        if (!ev) {
            replayDiverge(state, replayCursor_->divergence());
            return;
        }
        for (size_t i = 0; i < ev->vars.size(); ++i) {
            uint64_t v = 0;
            if (!replayCursor_->inputValue(ev->vars[i], &v)) {
                replayDiverge(state, "witness has no value for " +
                                         ev->vars[i]);
                return;
            }
            state.mem.writeConcreteByte(addr + static_cast<uint32_t>(i),
                                        static_cast<uint8_t>(v));
        }
        if (tbCache_.overlapsCode(addr, len))
            tbCache_.notifyWrite(addr, len);
        return;
    }
    std::string base = symName(state, name);
    std::vector<std::string> names;
    for (uint32_t i = 0; i < len; ++i) {
        if (!state.mem.inBounds(addr + i, 1))
            break;
        ExprRef var =
            builder_.var(strprintf("%s[%u]", base.c_str(), i), 8);
        state.mem.makeSymbolic(addr + i, var);
        if (recording_)
            names.push_back(var->name());
    }
    if (tbCache_.overlapsCode(addr, len))
        tbCache_.notifyWrite(addr, len);
    Stats::bump(*hot_.symValuesCreated, len);
    recordEvent(state, replay::SiteKind::SymMem, state.cpu.pc, addr, len,
                std::move(names));
}

std::optional<uint32_t>
Engine::concretize(ExecutionState &state, const Value &value,
                   const char *reason)
{
    if (value.isConcrete())
        return value.concrete();
    Stats::bump(concretizationSites_.slot(reason));
    uint64_t raw = 0;
    auto v = curSolver().getValue(state.constraints, value.expr(), &raw);
    if (v.isUnknown()) {
        // A concretization site must produce *a* value; with the
        // solver giving up there is no sound one. Kill the state as a
        // solver failure — Unsat would misreport the path as infeasible.
        solverFailState(state, "concretize", v,
                        strprintf("solver gave up while concretizing "
                                  "(%s)",
                                  reason));
        return std::nullopt;
    }
    if (v.isUnsat()) {
        killState(state, StateStatus::Unsat,
                  strprintf("unsatisfiable constraints while "
                            "concretizing (%s)",
                            reason));
        return std::nullopt;
    }
    uint32_t cv = static_cast<uint32_t>(raw);
    // The soft constraint of §2.2: concretization corsets the path.
    state.addConstraint(
        builder_.eq(value.expr(), builder_.constant(cv, 32)));
    return cv;
}

std::optional<uint32_t>
Engine::readRegConcrete(ExecutionState &state, unsigned reg)
{
    S2E_ASSERT(reg < isa::kNumRegs, "bad register %u", reg);
    auto v = concretize(state, state.cpu.regs[reg], "reg_read");
    if (v)
        state.cpu.regs[reg] = Value(*v);
    return v;
}

namespace {
/** The state currently executing a timeslice on this thread. A kill
 *  aimed at any other state (sibling sweeps, external callers) lands
 *  at a schedule-dependent point of the victim's execution. */
thread_local ExecutionState *tl_executing = nullptr;
} // namespace

void
Engine::killState(ExecutionState &state, StateStatus status,
                  const std::string &message)
{
    // Cross-thread kills (e.g. a plugin killing a sibling path) are
    // serialized here; the message is written before the release
    // status store so any thread that observes !isActive() (acquire)
    // also sees the message.
    std::lock_guard<std::mutex> lock(killMutex_);
    if (!state.isActive())
        return;
    bool async = &state != tl_executing;
    if (async)
        state.killedAsync = true;
    state.statusMessage = message;
    state.setStatus(status);
    // Published after the status: a worker that sees the count move
    // also sees the state inactive when it sweeps.
    if (async)
        asyncKills_.fetch_add(1);
}

void
Engine::noteSolverDegraded(ExecutionState &state, const char *site,
                           bool timed_out)
{
    state.degraded = true;
    state.degradeCount++;
    Stats::bump(*hot_.solverDegraded);
    Stats::bump(degradeSites_.slot(site));
    SolverDegradeInfo info{state.cpu.pc, site, timed_out, false};
    events_.onSolverDegraded.emit(state, info);
}

void
Engine::solverFailState(ExecutionState &state, const char *site,
                        const solver::QueryOutcome &outcome,
                        const std::string &message)
{
    Stats::bump(*hot_.solverFailures);
    Stats::bump(solverFailureSites_.slot(site));
    SolverDegradeInfo info{state.cpu.pc, site, outcome.timedOut, true};
    events_.onSolverDegraded.emit(state, info);
    killState(state, StateStatus::SolverFailure, message);
}

ExecutionState *
Engine::forkState(ExecutionState &state)
{
    if (replayCursor_)
        return replayApiFork(state);
    ExecutionState *child = fork(state, builder_.trueExpr());
    if (recording_) {
        // Role 0 = the caller's own path continues (even when the
        // child was suppressed by the state budget: the parent's
        // behavior is the same either way); role 1 = the path that
        // became the injected child.
        recordEvent(state, replay::SiteKind::ApiFork, state.cpu.pc, 0, 0);
        if (child)
            recordEvent(*child, replay::SiteKind::ApiFork, state.cpu.pc,
                        1, 0);
    }
    return child;
}

ExecutionState *
Engine::replayApiFork(ExecutionState &state)
{
    const replay::NondetEvent *ev =
        replayCursor_->expectApiFork(state.instrCount, state.cpu.pc);
    if (!ev) {
        replayDiverge(state, replayCursor_->divergence());
        return nullptr;
    }
    if (ev->a == 0) {
        // The witness path stayed on the caller's side; returning
        // null makes the plugin skip its child-only injection, which
        // is exactly what the original parent observed.
        return nullptr;
    }
    // The witness path *is* the injected child. Re-fork for real so
    // the child re-executes the current block from its start (the
    // original child did too, which is what keeps every later
    // instruction-count stamp aligned), hand the cursor over, and
    // retire the parent as a replay artifact.
    ExecutionState *child = fork(state, builder_.trueExpr());
    S2E_ASSERT(child, "replay fork cannot be budget-suppressed");
    replayCursor_->setLeaf(child);
    killState(state, StateStatus::Killed,
              "replay: path continued as the fork child");
    return child;
}

ExecutionState *
Engine::fork(ExecutionState &state, ExprRef condition)
{
    obs::PhaseSpan span(curProfiler(), obs::Phase::Fork);
    ExecutionState *child_ptr = nullptr;
    {
        std::lock_guard<std::mutex> lock(statesMutex_);
        if (config_.maxStatesCreated &&
            states_.size() >= config_.maxStatesCreated) {
            Stats::bump(*hot_.forksSuppressedBudget);
            return nullptr;
        }
        // The child's path id is derived from the parent's, not from
        // the runtime state id: "<parent>.<k>" for the parent's k-th
        // fork. This keeps path identity independent of worker
        // scheduling so runs at every worker count name paths alike.
        // Re-checkpoint the parent right before cloning: both sides
        // then share one frozen snapshot (pages + constraint prefix)
        // and start with an empty delta, so a later spill of either
        // serializes only what it wrote after this fork.
        lifecycle::takeCheckpoint(state);
        uint32_t fork_seq = state.nextForkSeq();
        auto child = state.clone(nextStateId_++);
        child->setPathId(state.pathId() + "." +
                         std::to_string(fork_seq));
        child_ptr = child.get();
        states_.push_back(std::move(child));
        addActive(*child_ptr);
        {
            std::lock_guard<std::mutex> searcher_lock(searcherMutex_);
            searcher_->stateAdded(*child_ptr);
        }
        residentInc();
    }
    Stats::bump(*hot_.forks);
    // Publish the child's footprint right away: a forked state
    // consumes memory while it waits in the queue, and short-lived
    // paths may retire within their first slice — without this the
    // governor would only ever see states that survived a requeue and
    // the resident cap could never trip.
    accountStateMemory(*child_ptr);

    // Signal dispatch stays on the forking worker: plugins see the
    // fork before either side of it runs again.
    ForkInfo info{&state, child_ptr, condition};
    events_.onExecutionFork.emit(info);

    // The child must NOT become runnable yet: the caller still
    // diverges it after fork() returns (handleBranch adds the negated
    // constraint and the fallthrough pc; plugins inject failure
    // values). Publishing now would let another worker steal a
    // half-built state. Park it on the forking *state's* pending list
    // (fork parents are always the currently-executing state, so only
    // the owning worker touches it); the worker publishes it at the
    // next block boundary, after the caller's mutations are complete.
    // A fork outside a round (plugin setup before run(), the merge
    // barrier) leaves the child in the active set, which seeds the
    // next round.
    if (tlsWorker_)
        state.pendingChildren.push_back(child_ptr);
    return child_ptr;
}

uint32_t
Engine::handleBranch(ExecutionState &state, const Value &cond,
                     uint32_t branch_pc, uint32_t taken_pc,
                     uint32_t fallthrough_pc)
{
    if (cond.isConcrete()) {
        uint32_t chosen = cond.concrete() ? taken_pc : fallthrough_pc;
        // In replay every branch is concrete; the ones that were
        // symbolic in the original run must go the recorded way.
        if (replayCursor_ && state.isActive() &&
            !replayCursor_->checkBranch(state.instrCount, branch_pc,
                                        chosen))
            replayDiverge(state, replayCursor_->divergence());
        return chosen;
    }
    if (replayCursor_) {
        // Recorded inputs are substituted concretely, so a symbolic
        // condition can only mean the replay went off the rails.
        replayDiverge(state,
                      strprintf("symbolic branch condition at 0x%x "
                                "during concrete replay",
                                branch_pc));
        return fallthrough_pc;
    }
    uint32_t chosen = resolveSymbolicBranch(state, cond, branch_pc,
                                            taken_pc, fallthrough_pc);
    // Record only surviving paths: kill exits never replay, and the
    // fork child's (opposite) outcome is recorded at the fork site.
    if (recording_ && state.isActive())
        recordEvent(state, replay::SiteKind::Branch, branch_pc, chosen, 0);
    return chosen;
}

uint32_t
Engine::resolveSymbolicBranch(ExecutionState &state, const Value &cond,
                              uint32_t branch_pc, uint32_t taken_pc,
                              uint32_t fallthrough_pc)
{
    obs::PhaseSpan span(curProfiler(), obs::Phase::SymbolicExec);
    state.symInstrCount++;
    ExprRef c = builder_.ne(cond.toExpr(builder_),
                            builder_.constant(0, 32));

    bool in_unit = isUnitPc(branch_pc);
    bool may_fork = state.multiPathEnabled &&
                    (in_unit || policy_.forkInEnvironment);

    if (!in_unit && !policy_.forkInEnvironment) {
        // Environment branches on symbolic data: consistency policy.
        switch (policy_.envSymbolicBranch) {
          case EnvSymbolicBranchPolicy::Abort:
            killState(state, StateStatus::Aborted,
                      strprintf("environment branch on symbolic data at "
                                "0x%x (LC propagation rule)",
                                branch_pc));
            return fallthrough_pc;
          case EnvSymbolicBranchPolicy::ConcretizeHard:
          case EnvSymbolicBranchPolicy::ConcretizeSoft: {
            Stats::bump(*hot_.envBranchConcretizations);
            auto v = concretize(state, cond, "env_branch");
            if (!v)
                return fallthrough_pc;
            return *v ? taken_pc : fallthrough_pc;
          }
          case EnvSymbolicBranchPolicy::Fork:
            break; // fall through to forking below
        }
        may_fork = state.multiPathEnabled;
    }

    if (!may_fork) {
        // Multi-path disabled (s2e_dis): soft-concretize the branch.
        auto v = concretize(state, cond, "branch_singlepath");
        if (!v)
            return fallthrough_pc;
        return *v ? taken_pc : fallthrough_pc;
    }

    if (policy_.ignoreFeasibility && in_unit) {
        // RC-CC: follow both CFG edges, skip the solver, record
        // nothing (the state is allowed to become inconsistent).
        ExecutionState *child = fork(state, c);
        if (child)
            child->cpu.pc = fallthrough_pc;
        Stats::bump(*hot_.cfgForks);
        return taken_pc;
    }

    auto feasibility = curSolver().checkBranch(state.constraints, c);
    const auto &ts = feasibility.trueSide;
    const auto &fs = feasibility.falseSide;

    if (ts.isSat() && fs.isSat()) {
        ExecutionState *child = fork(state, c);
        state.addConstraint(c);
        if (child) {
            child->addConstraint(builder_.lnot(c));
            child->cpu.pc = fallthrough_pc;
            // The child's log was cloned before the branch resolved;
            // its own outcome (the fallthrough side) goes on its log
            // here, the parent's on the parent's in handleBranch.
            recordEvent(*child, replay::SiteKind::Branch, branch_pc,
                        fallthrough_pc, 0);
        }
        return taken_pc;
    }
    if (!ts.isUnknown() && !fs.isUnknown()) {
        // Definite answers on both sides: single feasible successor
        // (or none — the path invariant broke, an engine bug guard).
        if (ts.isSat()) {
            state.addConstraint(c);
            return taken_pc;
        }
        if (fs.isSat()) {
            state.addConstraint(builder_.lnot(c));
            return fallthrough_pc;
        }
        killState(state, StateStatus::Unsat,
                  strprintf("both branch sides infeasible at 0x%x",
                            branch_pc));
        return fallthrough_pc;
    }

    // At least one side is Unknown: graceful degradation. Suppress the
    // fork and follow exactly one side that is *known or made*
    // feasible — never silently drop a definite side, never follow an
    // infeasible one.
    Stats::bump(*hot_.forksSuppressedDegraded);
    noteSolverDegraded(state, "branch", ts.timedOut || fs.timedOut);
    if (ts.isSat()) {
        state.addConstraint(c);
        return taken_pc;
    }
    if (fs.isSat()) {
        state.addConstraint(builder_.lnot(c));
        return fallthrough_pc;
    }
    // A definite Unsat cannot reach this block on the true side:
    // checkBranch short-circuits it into a definite-Sat false side,
    // which the definite-answers block above consumed. Enforce that
    // instead of assuming it — a future checkBranch change that
    // breaks the invariant would otherwise silently skew degraded
    // branch handling.
    S2E_ASSERT(ts.isUnknown(),
               "degraded branch: true side is definite but unhandled");
    if (fs.isUnsat()) {
        // Unknown + Unsat: the false side is proved infeasible and the
        // path invariant keeps the constraint set satisfiable, so the
        // true side is forced — no concretization query needed.
        state.addConstraint(c);
        return taken_pc;
    }
    // Both Unknown: fall back to the concrete-evaluated side, like
    // concretization does.
    uint64_t cv = 0;
    auto pick = curSolver().getValue(state.constraints, c, &cv);
    if (pick.isUnknown()) {
        solverFailState(state, "branch", pick,
                        strprintf("solver gave up on both sides of the "
                                  "branch at 0x%x",
                                  branch_pc));
        return fallthrough_pc;
    }
    if (pick.isUnsat()) {
        killState(state, StateStatus::Unsat,
                  strprintf("unsatisfiable constraints at branch 0x%x",
                            branch_pc));
        return fallthrough_pc;
    }
    if (cv) {
        state.addConstraint(c);
        return taken_pc;
    }
    state.addConstraint(builder_.lnot(c));
    return fallthrough_pc;
}

Value
Engine::symbolicLoad(ExecutionState &state, const Value &addr, unsigned len)
{
    obs::PhaseSpan span(curProfiler(), obs::Phase::SymbolicExec);
    Stats::bump(*hot_.symPointerLoads);
    ExprRef a = addr.expr();

    // Pick the window containing one feasible address, constrain the
    // pointer into it (the paper's page-content-passing scheme: only
    // a small page of memory is handed to the solver).
    uint64_t example = 0;
    auto ex = curSolver().getValue(state.constraints, a, &example);
    if (ex.isUnknown()) {
        solverFailState(state, "symbolic_load", ex,
                        "solver gave up resolving a symbolic load "
                        "address");
        return Value(0u);
    }
    if (ex.isUnsat()) {
        killState(state, StateStatus::Unsat,
                  "unsatisfiable constraints at symbolic load");
        return Value(0u);
    }
    uint32_t window = config_.symPointerWindow;
    uint32_t base = static_cast<uint32_t>(example) & ~(window - 1);
    if (!state.mem.inBounds(base, window)) {
        killState(state, StateStatus::Crashed,
                  strprintf("symbolic pointer window 0x%x out of bounds",
                            base));
        return Value(0u);
    }
    ExprRef lo = builder_.constant(base, 32);
    ExprRef hi = builder_.constant(base + window - len, 32);
    ExprRef in_window = builder_.land(builder_.uge(a, lo),
                                      builder_.ule(a, hi));
    auto must = curSolver().mustBeTrue(state.constraints, in_window);
    if (!must.yes()) {
        // Not *proved* inside the window (definite no, or the solver
        // gave up): the soft constraint keeps the ite chain sound
        // either way, but an Unknown means feasible addresses may have
        // been cut off — record the degradation.
        state.addConstraint(in_window); // soft window constraint
        Stats::bump(*hot_.symPointerWindowConstrained);
        if (must.isUnknown())
            noteSolverDegraded(state, "symload_window", must.timedOut);
    }

    // Build the ite chain over the window contents.
    Value result;
    bool first = true;
    ExprRef read = nullptr;
    for (uint32_t off = window - len + 1; off-- > 0;) {
        uint32_t candidate = base + off;
        ExprRef byte = state.mem.byteExpr(candidate, builder_);
        ExprRef word = byte;
        for (unsigned i = 1; i < len; ++i)
            word = builder_.concat(
                state.mem.byteExpr(candidate + i, builder_), word);
        if (first) {
            read = word;
            first = false;
        } else {
            read = builder_.ite(
                builder_.eq(a, builder_.constant(candidate, 32)), word,
                read);
        }
    }
    Stats::raiseTo(*hot_.symPointerMaxWindow, window);
    result = Value(read);
    (void)result;
    return Value(read);
}

Value
Engine::loadFrom(ExecutionState &state, uint32_t addr, unsigned len,
                 bool sign_extend)
{
    // MMIO window.
    if (addr >= vm::kMmioBase) {
        for (const auto &[lo, hi] : config_.symbolicMmioRanges) {
            if (addr >= lo && addr < hi &&
                policy_.symbolicHardwareAllowed &&
                policy_.symbolicInputsEnabled) {
                Stats::bump(*hot_.symbolicHardwareReads);
                if (replayCursor_) {
                    auto v = replaySubstitute(
                        state, replay::SiteKind::MmioRead, addr, 0);
                    return Value(static_cast<uint32_t>(v.value_or(0)));
                }
                ExprRef var = builder_.var(
                    symName(state, strprintf("mmio_%x", addr)), 32);
                recordEvent(state, replay::SiteKind::MmioRead,
                            state.cpu.pc, addr, 0, {var->name()});
                return Value(var);
            }
        }
        vm::Device *dev = state.devices.findMmio(addr);
        if (!dev) {
            killState(state, StateStatus::Crashed,
                      strprintf("MMIO read from unmapped 0x%x", addr));
            return Value(0u);
        }
        vm::DeviceBus bus = deviceBusFor(state);
        return Value(dev->mmioRead(addr, len, bus));
    }

    if (!state.mem.inBounds(addr, len)) {
        killState(state, StateStatus::Crashed,
                  strprintf("memory read at 0x%x (+%u) out of bounds",
                            addr, len));
        return Value(0u);
    }
    Value v = state.mem.read(addr, len, builder_);
    if (len == 4)
        return v;
    if (v.isConcrete()) {
        uint32_t raw = v.concrete();
        if (sign_extend)
            return Value(static_cast<uint32_t>(signExtend(raw, len * 8)));
        return Value(raw);
    }
    ExprRef e = v.expr();
    return Value(sign_extend ? builder_.sext(e, 32) : builder_.zext(e, 32));
}

bool
Engine::storeTo(ExecutionState &state, uint32_t addr, const Value &value,
                unsigned len)
{
    if (addr >= vm::kMmioBase) {
        vm::Device *dev = state.devices.findMmio(addr);
        if (!dev) {
            killState(state, StateStatus::Crashed,
                      strprintf("MMIO write to unmapped 0x%x", addr));
            return false;
        }
        Value v = value;
        auto conc = concretize(state, v, "mmio_write");
        if (!conc)
            return false;
        vm::DeviceBus bus = deviceBusFor(state);
        dev->mmioWrite(addr, *conc, len, bus);
        return true;
    }

    if (!state.mem.inBounds(addr, len)) {
        killState(state, StateStatus::Crashed,
                  strprintf("memory write at 0x%x (+%u) out of bounds",
                            addr, len));
        return false;
    }

    if (value.isConcrete()) {
        state.mem.write(addr, Value(value.concrete()), len, builder_);
    } else {
        ExprRef e = value.expr();
        if (len < 4)
            e = builder_.extract(e, 0, len * 8);
        state.mem.write(addr, Value(e), len, builder_);
    }
    if (tbCache_.overlapsCode(addr, len))
        tbCache_.notifyWrite(addr, len);
    return true;
}

Value
Engine::ioRead(ExecutionState &state, uint32_t port)
{
    uint16_t p = static_cast<uint16_t>(port);
    for (const auto &[lo, hi] : config_.symbolicPortRanges) {
        if (p >= lo && p <= hi && policy_.symbolicHardwareAllowed &&
            policy_.symbolicInputsEnabled) {
            Stats::bump(*hot_.symbolicHardwareReads);
            if (replayCursor_) {
                auto rv = replaySubstitute(
                    state, replay::SiteKind::PortRead, p, 0);
                Value v(static_cast<uint32_t>(rv.value_or(0)));
                events_.onPortAccess.emit(state, p, v, false);
                return v;
            }
            ExprRef var =
                builder_.var(symName(state, strprintf("port_%x", p)), 32);
            recordEvent(state, replay::SiteKind::PortRead, state.cpu.pc,
                        p, 0, {var->name()});
            Value v(var);
            events_.onPortAccess.emit(state, p, v, false);
            return v;
        }
    }
    vm::Device *dev = state.devices.findPort(p);
    Value result(0xFFFFFFFFu); // floating bus
    if (dev) {
        vm::DeviceBus bus = deviceBusFor(state);
        result = Value(dev->ioRead(p, bus));
    }
    events_.onPortAccess.emit(state, p, result, false);
    return result;
}

void
Engine::ioWrite(ExecutionState &state, uint32_t port, const Value &value)
{
    uint16_t p = static_cast<uint16_t>(port);
    // Analyzers see the value *before* concretization so they can
    // detect symbolic (e.g. secret-tainted) data leaving the system.
    events_.onPortAccess.emit(state, p, value, true);
    vm::Device *dev = state.devices.findPort(p);
    if (!dev)
        return;
    auto conc = concretize(state, value, "port_write");
    if (!conc)
        return;
    vm::DeviceBus bus = deviceBusFor(state);
    dev->ioWrite(p, *conc, bus);
}

Value
Engine::packFlags(ExecutionState &state) const
{
    const CpuState &cpu = state.cpu;
    bool all_concrete = true;
    for (const Value &f : cpu.flags)
        if (f.isSymbolic())
            all_concrete = false;
    uint32_t ie = cpu.intEnabled ? 1u : 0u;
    if (all_concrete) {
        uint32_t w = (cpu.flags[0].concrete() & 1) |
                     ((cpu.flags[1].concrete() & 1) << 1) |
                     ((cpu.flags[2].concrete() & 1) << 2) |
                     ((cpu.flags[3].concrete() & 1) << 3) | (ie << 4);
        return Value(w);
    }
    ExprBuilder &bld = const_cast<ExprBuilder &>(builder_);
    ExprRef w = bld.constant(ie << 4, 32);
    for (unsigned i = 0; i < 4; ++i) {
        ExprRef f = cpu.flags[i].toExpr(bld);
        ExprRef bit = bld.bAnd(f, bld.constant(1, 32));
        w = bld.bOr(w, bld.shl(bit, bld.constant(i, 32)));
    }
    return Value(w);
}

void
Engine::unpackFlags(ExecutionState &state, const Value &word)
{
    if (word.isConcrete()) {
        uint32_t w = word.concrete();
        for (unsigned i = 0; i < 4; ++i)
            state.cpu.flags[i] = Value((w >> i) & 1);
        state.cpu.intEnabled = (w >> 4) & 1;
        return;
    }
    ExprRef w = word.expr();
    for (unsigned i = 0; i < 4; ++i)
        state.cpu.flags[i] = Value(builder_.bAnd(
            builder_.lshr(w, builder_.constant(i, 32)),
            builder_.constant(1, 32)));
    // The interrupt-enable bit must be concrete to schedule delivery.
    ExprRef ie_bit = builder_.bAnd(builder_.lshr(w, builder_.constant(4, 32)),
                                   builder_.constant(1, 32));
    Value ie(ie_bit);
    auto conc = concretize(state, ie, "iret_ie");
    state.cpu.intEnabled = conc.value_or(0) != 0;
}

void
Engine::enterInterrupt(ExecutionState &state, unsigned vector,
                       uint32_t return_pc)
{
    events_.onException.emit(state, vector);

    // Push flags, then the return pc.
    Value flags = packFlags(state);
    auto push = [&](const Value &v) -> bool {
        auto sp = concretize(state, state.cpu.regs[isa::kRegSp], "push_sp");
        if (!sp)
            return false;
        uint32_t nsp = *sp - 4;
        state.cpu.regs[isa::kRegSp] = Value(nsp);
        return storeTo(state, nsp, v, 4);
    };
    if (!push(flags) || !push(Value(return_pc)))
        return;
    state.cpu.intEnabled = false;

    uint32_t ivt_entry = vm::kIvtBase + 4 * vector;
    Value handler = loadFrom(state, ivt_entry, 4, false);
    if (!state.isActive())
        return;
    auto h = concretize(state, handler, "ivt");
    if (!h)
        return;
    if (*h == 0) {
        killState(state, StateStatus::Crashed,
                  strprintf("unhandled interrupt vector 0x%x", vector));
        return;
    }
    state.cpu.interruptDepth++;
    state.cpu.pc = *h;
}

void
Engine::deliverInterrupts(ExecutionState &state)
{
    if (!state.cpu.intEnabled || state.cpu.pendingIrqs == 0)
        return;
    unsigned irq = __builtin_ctz(state.cpu.pendingIrqs);
    state.cpu.pendingIrqs &= ~(1u << irq);
    Stats::bump(*hot_.interruptsDelivered);
    if (replayCursor_) {
        // Devices tick off the state's own instruction clock, so a
        // faithful replay re-raises every interrupt at the recorded
        // point; verify rather than trust.
        if (!replayCursor_->expect(replay::SiteKind::Interrupt,
                                   state.instrCount, state.cpu.pc, irq,
                                   0)) {
            replayDiverge(state, replayCursor_->divergence());
            return;
        }
    } else {
        recordEvent(state, replay::SiteKind::Interrupt, state.cpu.pc, irq,
                    0);
    }
    enterInterrupt(state, irq, state.cpu.pc);
}

void
Engine::execS2Op(ExecutionState &state, const MicroOp &op,
                 const std::vector<Value> &temps, uint32_t instr_pc,
                 uint32_t next_pc, uint32_t *next_pc_out)
{
    (void)instr_pc;
    auto opcode = static_cast<isa::Opcode>(op.imm);
    switch (opcode) {
      case isa::Opcode::Cli:
        state.cpu.intEnabled = false;
        break;
      case isa::Opcode::Sti:
        state.cpu.intEnabled = true;
        break;
      case isa::Opcode::S2Ena:
        state.multiPathEnabled = true;
        break;
      case isa::Opcode::S2Dis:
        state.multiPathEnabled = false;
        break;
      case isa::Opcode::S2SymReg:
        // Base names are per-site; makeRegSymbolic scopes them with
        // the state's path id and per-state sequence, so names stay
        // deterministic under any worker interleaving.
        makeRegSymbolic(state, op.reg, strprintf("sym_r%u", op.reg));
        break;
      case isa::Opcode::S2SymRange: {
        uint32_t lo = temps[op.a].concrete();
        uint32_t hi = temps[op.b].concrete();
        makeRegSymbolic(state, op.reg, strprintf("sym_r%u", op.reg),
                        std::make_pair(lo, hi));
        break;
      }
      case isa::Opcode::S2SymMem: {
        auto addr = concretize(state, temps[op.a], "s2symmem_addr");
        auto len = concretize(state, temps[op.b], "s2symmem_len");
        if (addr && len)
            makeMemSymbolic(state, *addr, *len, "sym_mem");
        break;
      }
      case isa::Opcode::S2Out:
        events_.onGuestOutput.emit(state, temps[op.a]);
        break;
      case isa::Opcode::S2Concrete: {
        auto v = readRegConcrete(state, op.reg);
        (void)v;
        break;
      }
      case isa::Opcode::S2Assert: {
        const Value &v = temps[op.a];
        if (v.isConcrete()) {
            if (v.concrete() == 0) {
                events_.onBug.emit(
                    state, strprintf("s2e_assert failed at 0x%x",
                                     instr_pc));
                killState(state, StateStatus::Crashed,
                          strprintf("assertion failed at 0x%x", instr_pc));
            }
            break;
        }
        ExprRef nonzero = builder_.ne(v.toExpr(builder_),
                                      builder_.constant(0, 32));
        auto may_fail = curSolver().mayBeTrue(state.constraints,
                                              builder_.lnot(nonzero));
        if (may_fail.isUnknown()) {
            // Can't decide whether the assert can fail: skip the bug
            // report (no false positives), keep the path alive under
            // the assertion constraint, and record the blind spot.
            noteSolverDegraded(state, "assert", may_fail.timedOut);
            state.addConstraint(nonzero);
            break;
        }
        if (may_fail.yes()) {
            events_.onBug.emit(
                state,
                strprintf("s2e_assert may fail at 0x%x", instr_pc));
            auto may_pass =
                curSolver().mayBeTrue(state.constraints, nonzero);
            if (may_pass.isUnknown()) {
                noteSolverDegraded(state, "assert", may_pass.timedOut);
                state.addConstraint(nonzero);
                break;
            }
            if (may_pass.no()) {
                killState(state, StateStatus::Crashed,
                          strprintf("assertion always fails at 0x%x",
                                    instr_pc));
                break;
            }
        }
        state.addConstraint(nonzero);
        break;
      }
      case isa::Opcode::S2Kill:
        state.exitCode = op.imm2;
        killState(state, StateStatus::Killed,
                  strprintf("s2e_kill(%u)", op.imm2));
        break;
      case isa::Opcode::S2Merge:
        // Merge point (real S2E: opcode 0xFF700000). The opcode is a
        // block terminator, so next_pc is already past it; the run
        // loop parks the state at that pc until the barrier drains.
        // With merging disabled it is a pure no-op — exactly the
        // oracle configuration the merge differential suite uses.
        if (config_.enableMergePoints && state.multiPathEnabled)
            state.atMergePoint = true;
        break;
      default:
        panic("execS2Op: unexpected opcode %s", isa::opcodeName(opcode));
    }
    *next_pc_out = next_pc;
}

bool
Engine::executeBlock(ExecutionState &state)
{
    deliverInterrupts(state);
    if (!state.isActive())
        return false;

    // Advance virtual device time on this state's private clock.
    {
        vm::DeviceBus bus = deviceBusFor(state);
        state.devices.tickAll(state.instrCount, bus);
    }

    auto tb = fetchBlock(state);
    if (tb->instrPcs.empty()) {
        killState(state, StateStatus::Crashed,
                  strprintf("invalid instruction at 0x%x", state.cpu.pc));
        return false;
    }
    Stats::bump(tb->execCount);
    state.blockCount++;
    state.instrCount += tb->instrPcs.size();
    if (replayCursor_ && replayCursor_->checkOverrun(state.instrCount)) {
        replayDiverge(state, replayCursor_->divergence());
        return false;
    }
    Stats::bump(*hot_.uopsExecuted, tb->ops.size());
    Stats::bump(*hot_.uopsPreOpt, tb->origOpCount);
    events_.onBlockExecute.emit(state, *tb);

    std::vector<Value> temps(tb->numTemps);
    uint32_t next_pc = tb->pc + tb->byteSize;
    bool fire_mem_events = !events_.onMemoryAccess.empty();
    bool fire_instr_events = !events_.onInstrExecution.empty();
    size_t next_instr = 0;
    // Opened at the block's first symbolic micro-op, it charges the
    // rest of the block to symbolic execution: one span per block
    // instead of two clock reads per symbolic micro-op.
    std::optional<obs::PhaseSpan> sym;

    for (size_t op_index = 0; op_index < tb->ops.size(); ++op_index) {
        // Per-instruction boundary bookkeeping (marked instructions).
        while (next_instr < tb->instrOpIndex.size() &&
               tb->instrOpIndex[next_instr] == op_index) {
            if (fire_instr_events && tb->marked[next_instr])
                events_.onInstrExecution.emit(state,
                                              tb->instrPcs[next_instr]);
            next_instr++;
        }
        if (!state.isActive())
            return false;

        const MicroOp &op = tb->ops[op_index];
        switch (op.op) {
          case UOp::Const:
            temps[op.dst] = Value(op.imm);
            break;
          case UOp::GetReg:
            temps[op.dst] = state.cpu.regs[op.reg];
            break;
          case UOp::SetReg:
            state.cpu.regs[op.reg] = temps[op.a];
            break;
          case UOp::GetFlag:
            temps[op.dst] = state.cpu.flags[op.reg];
            break;
          case UOp::SetFlag:
            state.cpu.flags[op.reg] = temps[op.a];
            break;

          S2E_ALU_UNARY_UOPS(S2E_UOP_CASE) {
            const Value &a = temps[op.a];
            if (a.isConcrete()) {
                temps[op.dst] = Value(dbt::evalUnary(op.op, a.concrete()));
            } else {
                if (!sym)
                    sym.emplace(curProfiler(), obs::Phase::SymbolicExec);
                state.symInstrCount++;
                temps[op.dst] =
                    Value(lowerAlu(op.op, a.expr(), nullptr, builder_));
            }
            break;
          }

          S2E_ALU_BINARY_UOPS(S2E_UOP_CASE) {
            const Value &a = temps[op.a];
            const Value &b = temps[op.b];
            if (a.isConcrete() && b.isConcrete()) {
                temps[op.dst] = Value(
                    dbt::evalBinary(op.op, a.concrete(), b.concrete()));
            } else {
                if (!sym)
                    sym.emplace(curProfiler(), obs::Phase::SymbolicExec);
                state.symInstrCount++;
                temps[op.dst] = Value(lowerAlu(op.op, a.toExpr(builder_),
                                               b.toExpr(builder_),
                                               builder_));
            }
            break;
          }

          case UOp::Load: {
            Value addr = temps[op.a];
            bool sym_addr = addr.isSymbolic();
            Value result;
            uint32_t resolved = 0;
            ExprRef addr_expr = nullptr;
            if (sym_addr) {
                ExprRef sum = builder_.add(
                    addr.toExpr(builder_),
                    builder_.constant(op.imm, 32));
                Value full(sum);
                if (full.isConcrete()) {
                    resolved = full.concrete();
                    result = loadFrom(state, resolved, op.size,
                                      op.signExt);
                } else {
                    addr_expr = sum;
                    result = symbolicLoad(state, full, op.size);
                    if (!state.isActive())
                        return false;
                    if (op.size < 4 && result.isSymbolic())
                        result = Value(
                            op.signExt
                                ? builder_.sext(result.expr(), 32)
                                : builder_.zext(result.expr(), 32));
                    // Example address for the access report only; an
                    // Unknown here just degrades the report, not the
                    // load itself.
                    uint64_t exv = 0;
                    auto ex = curSolver().getValue(state.constraints,
                                                   sum, &exv);
                    resolved =
                        ex.isSat() ? static_cast<uint32_t>(exv) : 0;
                    if (ex.isUnknown())
                        noteSolverDegraded(state, "memaccess_report",
                                           ex.timedOut);
                }
            } else {
                resolved = addr.concrete() + op.imm;
                result = loadFrom(state, resolved, op.size, op.signExt);
            }
            if (!state.isActive())
                return false;
            temps[op.dst] = result;
            if (fire_mem_events) {
                MemAccessInfo info{resolved, op.size, false, sym_addr,
                                   &temps[op.dst], addr_expr};
                events_.onMemoryAccess.emit(state, info);
            }
            break;
          }

          case UOp::Store: {
            Value addr = temps[op.a];
            uint32_t resolved;
            ExprRef addr_expr = nullptr;
            if (addr.isSymbolic()) {
                // Symbolic store addresses are soft-concretized (the
                // read side gets the ite treatment; see DESIGN.md).
                // The pre-concretization expression is reported to
                // analyzers so they can range-check the pointer.
                ExprRef sum = builder_.add(addr.toExpr(builder_),
                                           builder_.constant(op.imm, 32));
                if (!Value(sum).isConcrete())
                    addr_expr = sum;
                auto v = concretize(state, Value(sum), "store_addr");
                if (!v)
                    return false;
                resolved = *v;
                Stats::bump(*hot_.symPointerStores);
            } else {
                resolved = addr.concrete() + op.imm;
            }
            if (fire_mem_events) {
                MemAccessInfo info{resolved, op.size, true,
                                   addr.isSymbolic(), &temps[op.b],
                                   addr_expr};
                events_.onMemoryAccess.emit(state, info);
            }
            if (!storeTo(state, resolved, temps[op.b], op.size))
                return false;
            break;
          }

          case UOp::In: {
            auto port = concretize(state, temps[op.a], "port_read");
            if (!port)
                return false;
            temps[op.dst] = ioRead(state, *port);
            break;
          }
          case UOp::Out: {
            auto port = concretize(state, temps[op.a], "port_write_port");
            if (!port)
                return false;
            ioWrite(state, *port, temps[op.b]);
            break;
          }

          case UOp::Goto:
          case UOp::CallDir:
            next_pc = op.imm;
            break;
          case UOp::GotoInd:
          case UOp::Ret: {
            auto target = concretize(state, temps[op.a], "indirect_jump");
            if (!target)
                return false;
            next_pc = *target;
            break;
          }
          case UOp::Branch: {
            uint32_t branch_pc = tb->instrPcs.empty()
                                     ? tb->pc
                                     : tb->instrPcs.back();
            next_pc = handleBranch(state, temps[op.a], branch_pc, op.imm,
                                   op.imm2);
            if (!state.isActive())
                return false;
            break;
          }
          case UOp::IntSw: {
            state.cpu.pc = op.imm2; // return address = next instruction
            enterInterrupt(state, op.imm, op.imm2);
            if (!state.isActive())
                return false;
            next_pc = state.cpu.pc;
            break;
          }
          case UOp::IretOp: {
            // Pop pc, then flags.
            auto sp = concretize(state, state.cpu.regs[isa::kRegSp],
                                 "iret_sp");
            if (!sp)
                return false;
            Value ret_pc = loadFrom(state, *sp, 4, false);
            Value flags = loadFrom(state, *sp + 4, 4, false);
            if (!state.isActive())
                return false;
            state.cpu.regs[isa::kRegSp] = Value(*sp + 8);
            unpackFlags(state, flags);
            if (state.cpu.interruptDepth > 0)
                state.cpu.interruptDepth--;
            auto target = concretize(state, ret_pc, "iret_pc");
            if (!target)
                return false;
            next_pc = *target;
            break;
          }
          case UOp::Halt:
            killState(state, StateStatus::Halted, "hlt");
            return false;

          case UOp::S2Op:
            execS2Op(state, op, temps, tb->instrPcForOp(op_index),
                     next_pc, &next_pc);
            if (!state.isActive())
                return false;
            break;
        }
    }

    state.cpu.pc = next_pc;
    return state.isActive();
}

std::string
Engine::symName(ExecutionState &state, const std::string &base)
{
    // Scope every symbolic-value name by the state's deterministic
    // path id and a per-state sequence number. Names — unlike global
    // counters — then depend only on the path's own history, so runs
    // at every worker count build byte-identical expressions.
    return strprintf("%s@%s#%llu", base.c_str(), state.pathId().c_str(),
                     static_cast<unsigned long long>(state.nextSymSeq()));
}

void
Engine::recordEvent(ExecutionState &state, replay::SiteKind kind,
                    uint32_t pc, uint32_t a, uint32_t b,
                    std::vector<std::string> vars)
{
    if (!recording_)
        return;
    replay::NondetEvent ev;
    ev.kind = kind;
    ev.instr = state.instrCount;
    ev.pc = pc;
    ev.a = a;
    ev.b = b;
    ev.vars = std::move(vars);
    state.replayLog.events.push_back(std::move(ev));
}

void
Engine::maybeEmitWitness(ExecutionState &state)
{
    if (!recording_)
        return;
    switch (state.status) {
      case StateStatus::Halted:
      case StateStatus::Killed:
      case StateStatus::Crashed:
        break;
      default:
        // Unsat/Aborted paths have no consistent model, Merged states
        // surrendered their log to the survivor, and budget/solver/
        // spill terminations land at schedule-dependent points.
        Stats::bump(*hot_.witnessesSkipped);
        return;
    }
    if (state.spilled || state.mergedSiblings > 0 || state.killedAsync) {
        // Killed-while-spilled states dropped their constraints; a
        // merge survivor's model may follow the absorbed sibling's
        // disjunct, whose events are not in this log; async kills
        // terminate at schedule-dependent points no replay can hit.
        Stats::bump(*hot_.witnessesSkipped);
        return;
    }
    // The witness gets its slot now, so witnesses_ keeps retirement
    // order however the extractions interleave.
    {
        std::lock_guard<std::mutex> lock(witnessMutex_);
        witnessQueue_.push_back({&state, witnesses_.size()});
        witnesses_.emplace_back();
        witnessesPending_++;
        Stats::raiseTo(*hot_.witnessBacklogPeak, witnessQueue_.size());
    }
    witnessWork_.notify_one();
}

void
Engine::runWitnessJob(const WitnessJob &job, replay::WitnessSolver &ws)
{
    const ExecutionState &state = *job.state;
    replay::ExtractResult r =
        replay::extractWitness(state, builder_, ws, witnessModels_);
    Stats::bump(*hot_.witnessComponentSolves, r.componentSolves);
    Stats::bump(*hot_.witnessComponentHits, r.componentHits);
    if (!r.witness) {
        Stats::bump(*hot_.witnessExtractFailures);
        warn("witness extraction failed for path %s: %s",
             state.pathId().c_str(), r.error.c_str());
    } else {
        Stats::bump(*hot_.witnessesEmitted);
        if (!config_.witnessDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(config_.witnessDir, ec);
            std::vector<uint8_t> image =
                replay::serializeWitness(*r.witness);
            std::string path = config_.witnessDir + "/" +
                               r.witness->pathId + ".witness";
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(image.data()),
                      static_cast<std::streamsize>(image.size()));
        }
    }
    bool idle;
    {
        std::lock_guard<std::mutex> lock(witnessMutex_);
        witnesses_[job.slot] = std::move(r.witness);
        idle = --witnessesPending_ == 0;
    }
    if (idle)
        witnessIdle_.notify_all();
}

void
Engine::drainWitnesses(replay::WitnessSolver &ws)
{
    for (;;) {
        WitnessJob job;
        {
            std::lock_guard<std::mutex> lock(witnessMutex_);
            if (witnessQueue_.empty())
                return;
            job = witnessQueue_.front();
            witnessQueue_.pop_front();
        }
        runWitnessJob(job, ws);
    }
}

void
Engine::witnessThreadLoop(replay::WitnessSolver &ws)
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(witnessMutex_);
            witnessWork_.wait(lock, [this] {
                return witnessStop_ || !witnessQueue_.empty();
            });
            if (witnessQueue_.empty())
                return; // stopped with nothing left
        }
        auto t0 = std::chrono::steady_clock::now();
        drainWitnesses(ws);
        Stats::bumpSeconds(*hot_.witnessExtractSeconds,
                           std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
}

std::vector<std::shared_ptr<const replay::Witness>>
Engine::witnesses() const
{
    // Slots of extractions still running or failed stay null.
    std::vector<std::shared_ptr<const replay::Witness>> out;
    std::lock_guard<std::mutex> lock(witnessMutex_);
    for (const auto &w : witnesses_)
        if (w)
            out.push_back(w);
    return out;
}

void
Engine::replayDiverge(ExecutionState &state, const std::string &what)
{
    // Keep the *first* mismatch: the cursor latches its own report and
    // ignores later ones, and the counter moves once per replay.
    replayCursor_->forceDiverge(what);
    if (Stats::read(*hot_.replayDivergences) == 0)
        Stats::bump(*hot_.replayDivergences);
    killState(state, StateStatus::Killed,
              "replay divergence: " + replayCursor_->divergence());
}

std::optional<uint64_t>
Engine::replaySubstitute(ExecutionState &state, replay::SiteKind kind,
                         uint32_t a, uint32_t b)
{
    const replay::NondetEvent *ev = replayCursor_->expect(
        kind, state.instrCount, state.cpu.pc, a, b);
    if (!ev) {
        replayDiverge(state, replayCursor_->divergence());
        return std::nullopt;
    }
    if (ev->vars.size() != 1) {
        replayDiverge(state, "malformed witness event: expected exactly "
                             "one variable");
        return std::nullopt;
    }
    uint64_t v = 0;
    if (!replayCursor_->inputValue(ev->vars[0], &v)) {
        replayDiverge(state, "witness has no value for " + ev->vars[0]);
        return std::nullopt;
    }
    return v;
}

void
Engine::retireState(ExecutionState &state)
{
    // Drop the state from active_ under the mutex, then fire the kill
    // event outside it (plugins may call back into activeStates()).
    {
        std::lock_guard<std::mutex> lock(statesMutex_);
        removeActive(state);
        std::lock_guard<std::mutex> searcher_lock(searcherMutex_);
        searcher_->stateRemoved(state);
    }
    events_.onStateKill.emit(state);
    releaseStateResources(state);
    accountStateMemory(state);
}

void
Engine::accountStateMemory(ExecutionState &state)
{
    // Workers maintain the pool-wide footprint by publishing the delta
    // of the one state they just ran, forked or retired, so the cost
    // is per state touched, not per active state.
    uint64_t now_bytes = state.isActive() ? state.memoryFootprint() : 0;
    uint64_t prev = state.accountedBytes;
    state.accountedBytes = now_bytes;
    uint64_t cur = currentMemBytes_.fetch_add(
                       now_bytes - prev, std::memory_order_relaxed) +
                   (now_bytes - prev);
    Stats::raiseTo(*hot_.memoryHighWatermark, cur);
}

void
Engine::residentInc()
{
    uint64_t now =
        residentStates_.fetch_add(1, std::memory_order_relaxed) + 1;
    Stats::raiseTo(*hot_.residentStatesPeak, now);
}

void
Engine::residentDec()
{
    residentStates_.fetch_sub(1, std::memory_order_relaxed);
}

void
Engine::releaseStateResources(ExecutionState &state)
{
    // Exactly-once terminal release: retireState and the merge/park
    // drain both funnel here, and a state killed while spilled must
    // still delete its image.
    if (state.resourcesReleased)
        return;
    state.resourcesReleased = true;
    state.solverCtx.reset(); // terminated paths never query again
    if (!state.spillKey.empty()) {
        spillStore_->release(state.spillKey);
        state.spillKey.clear();
    }
    // A spilled state already left the resident count at spill time.
    if (!state.spilled)
        residentDec();
    // Last: a queued state is read-only (see witnessMutex_), and the
    // exactly-once guarantee of this funnel makes it the right
    // emission point.
    maybeEmitWitness(state);
}

bool
Engine::spillState(ExecutionState &state)
{
    S2E_ASSERT(!state.spilled, "double spill of state %d", state.id());
    obs::PhaseSpan span(curProfiler(), obs::Phase::Fork);
    std::vector<uint8_t> image = serializer_->serialize(state);
    std::string key = strprintf("state-%d", state.id());
    lifecycle::SpillIoResult res = spillStore_->write(key, image);
    Stats::bump(*hot_.spillRetries, res.retries);
    if (!res.ok) {
        // Degrade, don't crash: the image never made it to disk, so
        // keep the state resident and stop trying to spill it. The
        // run continues with the memory cap exceeded.
        state.spillPinned = true;
        Stats::bump(*hot_.spillWriteFailures);
        return false;
    }
    state.spillKey = key;
    state.spilled = true;
    // Everything the image (plus the checkpoint chain) can rebuild is
    // dropped. Plugin states stay resident: codec-less plugins cannot
    // round-trip through the image, and the per-path data is tiny
    // compared to pages and constraints.
    state.mem.dropAllPages();
    state.constraints.clear();
    state.constraints.shrink_to_fit();
    state.solverCtx.reset();
    residentDec();
    Stats::bump(*hot_.statesSpilled);
    Stats::bump(*hot_.spillBytes, image.size());
    return true;
}

bool
Engine::restoreState(ExecutionState &state)
{
    obs::PhaseSpan span(curProfiler(), obs::Phase::Fork);
    std::vector<uint8_t> image;
    // Each read attempt must pass the header + checksum check; a
    // latent corrupt write (or a short read) therefore surfaces as a
    // retried read, not as a half-applied restore.
    lifecycle::SpillIoResult res = spillStore_->read(
        state.spillKey, &image, [](const std::vector<uint8_t> &img) {
            return lifecycle::StateSerializer::validateImage(img);
        });
    Stats::bump(*hot_.spillRetries, res.retries);
    std::string err;
    if (!res.ok || !serializer_->deserialize(image, state, &err)) {
        killState(state, StateStatus::SpillFailure,
                  strprintf("restore of spilled state failed: %s",
                            res.ok ? err.c_str() : res.error.c_str()));
        return false;
    }
    spillStore_->release(state.spillKey);
    state.spillKey.clear();
    state.spilled = false;
    residentInc();
    Stats::bump(*hot_.statesRestored);
    return true;
}

void
Engine::parkForMerge(ExecutionState &state)
{
    {
        std::lock_guard<std::mutex> lock(statesMutex_);
        removeActive(state);
        std::lock_guard<std::mutex> searcher_lock(searcherMutex_);
        searcher_->stateRemoved(state);
    }
    std::lock_guard<std::mutex> lock(mergeMutex_);
    mergePool_[state.cpu.pc].push_back(&state);
}

void
Engine::drainMergePool()
{
    std::map<uint32_t, std::vector<ExecutionState *>> pool;
    {
        std::lock_guard<std::mutex> lock(mergeMutex_);
        pool.swap(mergePool_);
    }
    for (auto &[pc, group] : pool) {
        // Deterministic fold order regardless of how workers
        // interleaved arrivals: sort by path id, merge left.
        std::sort(group.begin(), group.end(),
                  [](const ExecutionState *a, const ExecutionState *b) {
                      return a->pathId() < b->pathId();
                  });
        std::vector<ExecutionState *> survivors;
        std::vector<ExecutionState *> absorbedInto;
        for (ExecutionState *s : group) {
            if (!s->isActive()) {
                // Killed while parked (cross-thread plugin kill).
                // parkForMerge already removed it from active_ and the
                // searcher, so only the kill event and the terminal
                // release remain.
                events_.onStateKill.emit(*s);
                releaseStateResources(*s);
                accountStateMemory(*s);
                continue;
            }
            bool absorbed = false;
            for (size_t i = 0; i < survivors.size(); ++i) {
                lifecycle::MergeAttempt attempt =
                    lifecycle::mergeStates(*survivors[i], *s, builder_);
                if (!attempt.merged)
                    continue;
                Stats::bump(*hot_.statesMerged);
                MergeInfo info{survivors[i], s, pc};
                events_.onStateMerge.emit(info);
                killState(*s, StateStatus::Merged,
                          strprintf("merged into path %s at 0x%x",
                                    survivors[i]->pathId().c_str(), pc));
                events_.onStateKill.emit(*s);
                releaseStateResources(*s);
                accountStateMemory(*s);
                absorbedInto.push_back(survivors[i]);
                absorbed = true;
                break;
            }
            if (!absorbed)
                survivors.push_back(s);
        }
        // A merge rewrites the survivor's constraint vector (prefix +
        // disjunction), so its old checkpoint's constraints may no
        // longer be a prefix of it. Re-checkpoint to restore the
        // spill-baseline invariant before the state runs again.
        std::sort(absorbedInto.begin(), absorbedInto.end());
        absorbedInto.erase(
            std::unique(absorbedInto.begin(), absorbedInto.end()),
            absorbedInto.end());
        for (ExecutionState *surv : absorbedInto)
            lifecycle::takeCheckpoint(*surv);
        for (ExecutionState *surv : survivors) {
            surv->atMergePoint = false;
            std::lock_guard<std::mutex> lock(statesMutex_);
            addActive(*surv);
            std::lock_guard<std::mutex> searcher_lock(searcherMutex_);
            searcher_->stateAdded(*surv);
        }
    }
}

void
Engine::killParkedStates()
{
    std::map<uint32_t, std::vector<ExecutionState *>> pool;
    {
        std::lock_guard<std::mutex> lock(mergeMutex_);
        pool.swap(mergePool_);
    }
    for (auto &[pc, group] : pool) {
        (void)pc;
        for (ExecutionState *s : group) {
            killState(*s, StateStatus::BudgetExceeded, "run budget");
            events_.onStateKill.emit(*s);
            releaseStateResources(*s);
            accountStateMemory(*s);
        }
    }
}

void
Engine::flushPendingChildren(ExecutionState &state, WorkQueue &queue,
                             unsigned worker)
{
    if (state.pendingChildren.empty())
        return;
    for (ExecutionState *child : state.pendingChildren) {
        // Over-cap spill at publish time: the child is fully diverged
        // but not yet visible to other workers, so this is the one
        // race-free window to drop its payload. Fork storms whose
        // paths retire within a single slice never reach the requeue
        // check — without this, queued children would be the
        // unbounded part of the pool.
        if (config_.maxResidentBytes && !child->spilled &&
            !child->spillPinned &&
            currentMemBytes_.load(std::memory_order_relaxed) >
                config_.maxResidentBytes) {
            if (spillState(*child))
                accountStateMemory(*child);
        }
        queue.add(worker, child);
    }
    state.pendingChildren.clear();
}

RunResult
Engine::run()
{
    RunResult result;
    auto start = std::chrono::steady_clock::now();
    uint64_t start_instr = Stats::read(*hot_.instructions);
    unsigned n = config_.numWorkers;

    std::vector<std::unique_ptr<WorkerContext>> workers;
    for (unsigned i = 0; i < n; ++i) {
        workers.push_back(
            std::make_unique<WorkerContext>(i, builder_, config_));
        // Fault injection (if configured) applies pool-wide.
        workers.back()->solver.setFaultPolicy(solver_.faultPolicy());
    }
    budgetExhausted_.store(false, std::memory_order_relaxed);

    // Witness extraction gets its own thread, solver and profiler, so
    // its solves stay out of the workers' phase table (whose fractions
    // are of workers x wall).
    obs::PhaseProfiler witness_profiler(config_.profileExecution);
    std::optional<replay::WitnessSolver> witness_solver;
    std::thread witness_thread;
    if (recording_) {
        witness_solver.emplace(builder_, config_.solverOptions,
                               &witness_profiler);
        witnessStop_ = false;
        witness_thread = std::thread(
            [this, &ws = *witness_solver] { witnessThreadLoop(ws); });
    }

    // Round loop: one round runs every active state to termination or
    // a merge point. Between rounds every worker has returned and
    // nothing executes, so arrival at each merge pc is complete and
    // the parked states can be merged; the survivors seed the next
    // round. Runs that never hit a merge point take one round.
    while (!active_.empty()) {
        WorkQueue queue(n);
        for (size_t i = 0; i < active_.size(); ++i)
            queue.add(static_cast<unsigned>(i % n), active_[i]);

        // Worker 0 is this thread: a 1-worker run starts no thread.
        std::vector<std::thread> threads;
        for (unsigned i = 1; i < n; ++i)
            threads.emplace_back([this, &w = *workers[i], &queue, start,
                                  start_instr] {
                workerLoop(w, queue, start, start_instr);
            });
        workerLoop(*workers[0], queue, start, start_instr);
        for (std::thread &t : threads)
            t.join();

        if (budgetExhausted_.load(std::memory_order_relaxed)) {
            killParkedStates();
            break;
        }
        drainMergePool();
    }

    if (recording_) {
        // The merge barrier may have queued more; help with what is
        // left, then wait for the extraction thread's last job.
        drainWitnesses(workers[0]->witnessSolver);
        {
            std::unique_lock<std::mutex> lock(witnessMutex_);
            witnessIdle_.wait(lock, [this] { return witnessesPending_ == 0; });
            witnessStop_ = true;
        }
        witnessWork_.notify_one();
        witness_thread.join();
        stats_.addSeconds("engine.witness.solver_s",
                          witness_profiler.seconds(obs::Phase::Solver));
    }

    // Workers are quiescent: fold their telemetry into the engine-level
    // profiler and solver stats so reports aggregate the whole pool.
    result.workers = n;
    for (auto &w : workers) {
        profiler_.mergeFrom(w->profiler);
        solver_.mergeFrom(w->solver);
        result.workerBusySeconds.push_back(w->busySeconds);
    }

    result.budgetExhausted =
        budgetExhausted_.load(std::memory_order_relaxed);
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    profiler_.flushTo(stats_, "engine.phase");
    result.totalInstructions =
        Stats::read(*hot_.instructions) - start_instr;
    result.forks = Stats::read(*hot_.forks);
    result.statesCreated = states_.size();
    for (const auto &s : states_) {
        result.totalBlocks += s->blockCount;
        switch (s->status) {
          case StateStatus::Halted:
          case StateStatus::Killed:
            result.completed++;
            break;
          case StateStatus::Crashed:
          case StateStatus::Unsat:
            result.crashed++;
            break;
          case StateStatus::Aborted:
            result.aborted++;
            break;
          case StateStatus::SolverFailure:
            result.solverFailures++;
            break;
          case StateStatus::Merged:
            result.mergedStates++;
            break;
          case StateStatus::SpillFailure:
            result.spillFailures++;
            break;
          default:
            break;
        }
        if (s->degraded && s->status != StateStatus::SolverFailure)
            result.degradedStates++;
    }
    result.statesSpilled = Stats::read(*hot_.statesSpilled);
    result.statesRestored = Stats::read(*hot_.statesRestored);
    result.spillBytes = Stats::read(*hot_.spillBytes);
    result.spillRetries = Stats::read(*hot_.spillRetries);
    result.residentStatesPeak = Stats::read(*hot_.residentStatesPeak);
    result.witnessesEmitted = Stats::read(*hot_.witnessesEmitted);
    result.witnessExtractFailures =
        Stats::read(*hot_.witnessExtractFailures);
    result.witnessesSkipped = Stats::read(*hot_.witnessesSkipped);
    result.replayDivergences = Stats::read(*hot_.replayDivergences);
    return result;
}

void
Engine::workerLoop(WorkerContext &w, WorkQueue &queue,
                   std::chrono::steady_clock::time_point start,
                   uint64_t start_instr)
{
    tlsWorker_ = &w;
    // The Searcher picks within this worker's shard, once per slice.
    auto pick = [this](const std::vector<ExecutionState *> &shard) {
        std::lock_guard<std::mutex> lock(searcherMutex_);
        return searcher_->select(shard);
    };
    std::vector<ExecutionState *> leaving;
    auto retire_leaving = [this, &leaving] {
        for (ExecutionState *s : leaving)
            retireState(*s);
        leaving.clear();
    };
    while (ExecutionState *state = queue.take(w.id, pick)) {
        auto slice_start = std::chrono::steady_clock::now();
        // A spilled state restores transparently when it is picked; on
        // restore failure it is already killed and retires below.
        if (state->isActive() &&
            !budgetExhausted_.load(std::memory_order_acquire) &&
            (!state->spilled || restoreState(*state))) {
            // Bind the state's incremental-context slot to this
            // worker's solver for the slice. Unbinding before the state
            // is released matters: another worker may then steal the
            // state (and the context with it).
            w.solver.bindPathContext(&state->solverCtx);
            tl_executing = state;
            uint64_t instr_before = state->instrCount;
            // The slice's enclosing span: nested translate/symbolic/
            // solver/fork spans carve their time out of it (exclusive
            // accounting), so what remains charged here is the true
            // concrete-execution fraction.
            obs::PhaseSpan concrete(curProfiler(), obs::Phase::ConcreteExec);
            for (unsigned i = 0;
                 i < config_.timesliceBlocks && state->isActive(); ++i) {
                // Children forked during a block become runnable only
                // from the next block boundary on (their setup
                // completes after fork() returns). Publishing before
                // the parent can leave the queue keeps its pending
                // count from hitting zero while an unpublished child
                // exists.
                bool running = executeBlock(*state);
                flushPendingChildren(*state, queue, w.id);
                if (!running || state->atMergePoint)
                    break;
            }
            tl_executing = nullptr;
            w.solver.bindPathContext(nullptr);
            Stats::bump(*hot_.instructions,
                        state->instrCount - instr_before);
        }
        accountStateMemory(*state);
        // Forks from kill-path handlers.
        flushPendingChildren(*state, queue, w.id);

        bool parked = state->isActive() && state->atMergePoint;
        if (parked) {
            // Out of the schedulable set until the round ends; the
            // barrier then merges it or hands it to the next round.
            queue.finish(w.id);
            parkForMerge(*state);
        }
        // Terminated states leave the shard before the next pick, in
        // slot order: the state that just ran and, once another
        // path's plugin killed any, every state of the shard.
        uint64_t kills = asyncKills_.load();
        if (kills != w.asyncKillsSeen) {
            w.asyncKillsSeen = kills;
            queue.sweep(
                w.id, [](ExecutionState *s) { return !s->isActive(); },
                leaving);
        } else if (!parked && !state->isActive()) {
            queue.finish(w.id);
            leaving.push_back(state);
        }
        retire_leaving();

        double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        uint64_t executed = Stats::read(*hot_.instructions) - start_instr;
        if ((config_.maxWallSeconds > 0 &&
             elapsed > config_.maxWallSeconds) ||
            (config_.maxInstructions > 0 &&
             executed > config_.maxInstructions))
            budgetExhausted_.store(true, std::memory_order_release);
        if (budgetExhausted_.load(std::memory_order_acquire)) {
            // Every worker kills its whole shard, then retires it.
            queue.sweep(
                w.id, [](ExecutionState *) { return true; }, leaving);
            for (ExecutionState *s : leaving)
                killState(*s, StateStatus::BudgetExceeded, "run budget");
            retire_leaving();
        } else if (state->isActive() && !parked &&
                   config_.maxResidentBytes && !state->spilled &&
                   !state->spillPinned &&
                   currentMemBytes_.load(std::memory_order_relaxed) >
                       config_.maxResidentBytes) {
            // Over-cap self-spill before the state becomes stealable
            // again: the owner drops its own state's payload.
            if (spillState(*state))
                accountStateMemory(*state);
        }
        queue.put(w.id);
        w.busySeconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - slice_start)
                             .count();
    }
    tlsWorker_ = nullptr;
    // Nothing left to explore this round: help the extraction thread
    // with its backlog, or it alone would finish the run.
    if (recording_)
        drainWitnesses(w.witnessSolver);
}

} // namespace s2e::core
