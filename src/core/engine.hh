/**
 * @file
 * The selective symbolic execution engine (paper §2, §5).
 *
 * The engine drives a set of ExecutionStates through the DBT. Every
 * micro-op runs on a concrete fast path when its inputs are concrete
 * and builds expressions otherwise, so "most instructions run
 * natively even in the symbolic domain". The unit/environment code
 * partition (unitRanges) plus the active ConsistencyPolicy decide
 * where forking happens and what happens to symbolic data crossing
 * the boundary — this is the selective part.
 */

#ifndef S2E_CORE_ENGINE_HH
#define S2E_CORE_ENGINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "core/consistency.hh"
#include "core/events.hh"
#include "core/lifecycle/spill.hh"
#include "core/replay/extract.hh"
#include "core/state.hh"
#include "core/workqueue.hh"
#include "dbt/translator.hh"
#include "obs/profiler.hh"
#include "solver/solver.hh"
#include "vm/machine.hh"

namespace s2e::core {

namespace lifecycle {
class StateSerializer;
}
namespace replay {
class ReplayCursor;
}

/**
 * Picks which state runs next (paper's priority-based selection). The
 * engine asks it once per timeslice, with the calling worker's shard:
 * that worker's states in insertion order (at one worker, every active
 * state). One engine mutex serializes every call, so implementations
 * need no locking of their own.
 */
class Searcher
{
  public:
    virtual ~Searcher() = default;
    virtual const char *name() const = 0;
    virtual void stateAdded(ExecutionState &state) { (void)state; }
    virtual void stateRemoved(ExecutionState &state) { (void)state; }
    /** Select from a non-empty shard. */
    virtual ExecutionState *
    select(const std::vector<ExecutionState *> &active) = 0;
};

/** Engine configuration. */
struct EngineConfig {
    ConsistencyModel model = ConsistencyModel::ScSe;

    /** Code ranges forming the *unit* (the symbolic domain). Empty
     *  means the whole system is the unit. */
    std::vector<std::pair<uint32_t, uint32_t>> unitRanges;

    /** Port ranges behaving as symbolic hardware (reads return fresh
     *  unconstrained symbolic values when the model allows it). */
    std::vector<std::pair<uint16_t, uint16_t>> symbolicPortRanges;

    /** MMIO ranges behaving as symbolic hardware. */
    std::vector<std::pair<uint32_t, uint32_t>> symbolicMmioRanges;

    /** Symbolic-pointer solver window (the §5 "small pages" passed to
     *  the constraint solver; §6.2 sweeps 128 B vs 4 KB). */
    uint32_t symPointerWindow = 128;

    /** Run budgets; 0 disables the budget. */
    uint64_t maxInstructions = 0;
    double maxWallSeconds = 0;
    size_t maxStatesCreated = 0;

    /** Translation blocks per scheduling quantum. */
    unsigned timesliceBlocks = 64;

    /**
     * Exploration worker threads. Every run is a worker pool: each
     * worker owns a shard of ready states, its own solver and
     * profiler, and asks the Searcher which state of its shard runs
     * next; a worker with an empty shard steals the oldest state of
     * another. Worker 0 is the thread that calls run(), so 1 (the
     * default) starts no thread. A run that explores to exhaustion
     * gives identical path results at every count (see
     * tests/test_parallel.cc), and a 1-worker run is deterministic
     * under its state and instruction budgets too. Above 1 worker a
     * budgeted run depends on the schedule: which states
     * maxStatesCreated admits, where maxInstructions cuts, and what
     * each shard's Searcher picks, so two runs can reach different
     * paths and bugs. maxWallSeconds is schedule-dependent at every
     * count.
     */
    unsigned numWorkers = 1;

    /** Record the phase-time breakdown (translate / concrete /
     *  symbolic / solver / fork). The compile-time default follows
     *  the S2E_OBS_DEFAULT_OFF CMake option. */
    bool profileExecution = obs::kProfilerDefaultEnabled;

    /** Run the TB optimization passes (constant folding, dead-flag
     *  and dead-temp elimination) after translation. The compile-time
     *  default follows the S2E_TB_OPT CMake option; the differential
     *  equivalence suite flips it per engine. */
    bool optimizeTb = dbt::kTbOptimizeDefault;

    /** Verify TB structural invariants after translate/optimize. */
    bool verifyTb = dbt::tbVerifyDefault();

    // --- State lifecycle (checkpoints / spill / merge) ----------------

    /**
     * Memory-governor cap on the summed engine-accounted footprint
     * (ExecutionState::memoryFootprint) of resident states; 0 keeps
     * everything resident. Over the cap, a fork child is serialized to
     * the spill store when it is published, and a state that just ran
     * spills itself before it is requeued; a spilled state restores
     * transparently the next time it is scheduled.
     */
    uint64_t maxResidentBytes = 0;

    /** Spill directory; empty picks a per-engine directory under the
     *  system temp dir. Removed when the engine is destroyed. */
    std::string spillDir;

    /** Deterministic spill-I/O fault injection (tests / benches). */
    lifecycle::SpillFaultPolicy spillFaults;

    /**
     * Honor s2e_merge_point opcodes: states reaching one are parked
     * until no other state can still arrive, then compatible siblings
     * are ITE-merged pairwise. Off by default — the opcode is then a
     * no-op, which is exactly the oracle configuration the merge
     * differential suite compares against.
     */
    bool enableMergePoints = false;

    // --- Record/replay witnesses --------------------------------------

    /**
     * Emit an `s2e.witness.v1` replay witness for every eligible
     * terminated path (Halted/Killed/Crashed, not merged, constraints
     * resident): a complete concrete input assignment extracted from
     * a fresh solver model plus the path's ordered nondeterminism log.
     * Extraction runs beside exploration on a thread run() starts, and
     * run() returns once every witness is done. Ignored under RC-CC
     * (infeasible paths have no model) and in replay mode.
     */
    bool emitWitnesses = false;

    /** Also write each emitted witness to `<witnessDir>/<pathId>.witness`
     *  (created on demand). Empty keeps witnesses in memory only. */
    std::string witnessDir;

    /**
     * Replay mode: re-execute this witness purely concretely with the
     * solver disconnected. Recorded values are substituted at each
     * nondeterminism site and every site/branch/interrupt must match
     * the log; the first mismatch kills the path with a divergence
     * report (see core/replay/replayer.hh). Forces numWorkers = 1 and
     * disables witness emission, merge points and state budgets.
     */
    std::shared_ptr<const replay::Witness> replayWitness;

    solver::SolverOptions solverOptions;
};

/** Aggregate outcome of a run() call. */
struct RunResult {
    uint64_t totalInstructions = 0;
    uint64_t totalBlocks = 0;
    uint64_t forks = 0;
    size_t statesCreated = 0;
    size_t completed = 0; ///< halted or killed cleanly
    size_t crashed = 0;
    size_t aborted = 0;
    /** States killed because a must-answer solver query returned
     *  Unknown (StateStatus::SolverFailure). */
    size_t solverFailures = 0;
    /** Surviving states that absorbed at least one solver Unknown via
     *  a degradation action (disjoint from solverFailures). */
    size_t degradedStates = 0;
    /** Paths absorbed into a sibling at an s2e_merge point
     *  (StateStatus::Merged); each one retired a whole subtree of
     *  would-be duplicate work. */
    size_t mergedStates = 0;
    /** States killed because a spilled image could not be restored
     *  even after retries (StateStatus::SpillFailure). */
    size_t spillFailures = 0;
    /** Spill events (one state may spill more than once). */
    uint64_t statesSpilled = 0;
    uint64_t statesRestored = 0;
    /** Serialized bytes successfully written to the spill store. */
    uint64_t spillBytes = 0;
    /** Extra I/O attempts the retry/backoff wrapper absorbed. */
    uint64_t spillRetries = 0;
    /** Peak count of simultaneously resident (unspilled) states. */
    uint64_t residentStatesPeak = 0;
    /** Replay witnesses emitted (EngineConfig::emitWitnesses). */
    uint64_t witnessesEmitted = 0;
    /** Terminated paths whose witness extraction failed (solver gave
     *  up / completed assignment failed validation). */
    uint64_t witnessExtractFailures = 0;
    /** Terminated paths ineligible for a witness (merged survivors,
     *  killed-while-spilled, non-terminal statuses). */
    uint64_t witnessesSkipped = 0;
    /** Replay-mode paths killed at the first mismatching site. */
    uint64_t replayDivergences = 0;
    bool budgetExhausted = false;
    double wallSeconds = 0;
    /** Worker pool size used by the run. */
    unsigned workers = 1;
    /** Per-worker busy wall-clock (executing states, not idling in the
     *  queue); workerBusySeconds[i] / wallSeconds is worker i's
     *  utilization. */
    std::vector<double> workerBusySeconds;
};

/**
 * Symbolic lowering of the ALU micro-ops (those dbt::isAluBinary or
 * dbt::isAluUnary accepts) onto the builder; @p b is ignored for Not
 * and Neg. Comparisons give 0/1 zero-extended to 32 bits. On constant
 * operands the builder folds it to dbt::evalBinary / dbt::evalUnary.
 */
ExprRef lowerAlu(dbt::UOp op, ExprRef a, ExprRef b, ExprBuilder &bld);

/**
 * The platform core. Owns the expression builder, the solver, the
 * translation cache, the event hub and all execution states.
 */
class Engine
{
  public:
    Engine(vm::MachineConfig machine, EngineConfig config);
    ~Engine();
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    ExprBuilder &builder() { return builder_; }
    /** The calling thread's solver: a worker's own during run()
     *  (plugins query from worker threads, and one Solver must never be
     *  shared between threads), the engine-level one otherwise. */
    solver::Solver &solver() { return curSolver(); }
    EventHub &events() { return events_; }
    Stats &stats() { return stats_; }
    obs::PhaseProfiler &profiler() { return profiler_; }
    const EngineConfig &config() const { return config_; }
    const ConsistencyPolicy &policy() const { return policy_; }

    /** Replace the scheduling policy (default: depth-first). */
    void setSearcher(std::unique_ptr<Searcher> searcher);
    Searcher *searcher() const { return searcher_.get(); }

    /** The initial state (available before run() for setup). */
    ExecutionState &initialState();

    /** Explore until no active states remain or a budget trips. */
    RunResult run();

    // --- State management (plugin API) --------------------------------

    const std::vector<std::unique_ptr<ExecutionState>> &allStates() const
    {
        return states_;
    }
    std::vector<ExecutionState *> activeStates() const;

    /** Terminate a state with the given status. */
    void killState(ExecutionState &state, StateStatus status,
                   const std::string &message);

    /**
     * Plugin API: unconditionally fork `state`. The returned child is
     * an identical copy (same pc, no added constraints) that the
     * caller may then diverge (e.g. inject a failure return value) —
     * the mechanism behind eager environment-behavior injection.
     * Returns nullptr if the state budget is exhausted.
     *
     * The child resumes at the start of the current translation
     * block; call this from hooks on block-leader instructions
     * (branch targets, function entries) so the child's re-execution
     * cannot clobber injected values.
     */
    ExecutionState *forkState(ExecutionState &state);

    /** Is this pc inside the unit (symbolic domain)? */
    bool isUnitPc(uint32_t pc) const;

    /**
     * Record a non-fatal solver degradation on `state`: the solver
     * returned Unknown at `site` and the caller took a conservative
     * action (suppressed a fork, kept a constraint, skipped a check)
     * instead of mis-answering. Marks the state degraded, bumps
     * `engine.solver_degraded` stats and emits onSolverDegraded.
     * Plugins absorbing Unknown outcomes should call this too.
     */
    void noteSolverDegraded(ExecutionState &state, const char *site,
                            bool timed_out);

    // --- Symbolic-value helpers (plugin API) ---------------------------

    /** Make a register symbolic; optional inclusive range constraint. */
    ExprRef makeRegSymbolic(ExecutionState &state, unsigned reg,
                            const std::string &name,
                            std::optional<std::pair<uint32_t, uint32_t>>
                                range = std::nullopt);

    /** Make a memory byte range symbolic. */
    void makeMemSymbolic(ExecutionState &state, uint32_t addr, uint32_t len,
                         const std::string &name);

    /**
     * Force a value concrete: returns a satisfying concrete value and
     * adds the equality (soft) constraint. Kills the state and returns
     * nullopt when constraints are unsatisfiable.
     */
    std::optional<uint32_t> concretize(ExecutionState &state,
                                       const Value &value,
                                       const char *reason);

    /** Read a register, concretizing if needed. */
    std::optional<uint32_t> readRegConcrete(ExecutionState &state,
                                            unsigned reg);

    /** Drop all cached translations (after runtime re-marking). */
    void flushTranslationCache() { tbCache_.clear(); }

    dbt::TbCache &tbCache() { return tbCache_; }

    /** The spill serializer. Plugins with per-path state register
     *  their codec here so spilled states round-trip it; codec-less
     *  plugin state simply stays resident across a spill. */
    lifecycle::StateSerializer &stateSerializer() { return *serializer_; }

    /** The spill store (test/bench introspection of I/O counters). */
    lifecycle::SpillStore &spillStore() { return *spillStore_; }

    /** Summed accounted footprint of live states (0 once run() has
     *  retired every path); tests check that the accounting balances. */
    uint64_t accountedMemBytes() const
    {
        return currentMemBytes_.load(std::memory_order_relaxed);
    }

    /** Witnesses emitted so far (EngineConfig::emitWitnesses), in the
     *  order their paths retired; complete once run() returns. */
    std::vector<std::shared_ptr<const replay::Witness>> witnesses() const;

    /** Component models witness extraction reuses across this
     *  engine's paths (keyed by this engine's expressions). */
    replay::ComponentModels &witnessModels() { return witnessModels_; }

    /** Replay-mode cursor; null outside replay mode. */
    replay::ReplayCursor *replayCursor() const
    {
        return replayCursor_.get();
    }

  private:
    struct TempFile; // per-block temp values

    /** Per-worker context: private solver, profiler and a lock-free L1
     *  over the shared TbCache. Reached via tlsWorker_. */
    struct WorkerContext;

    /** The calling thread's worker context while it runs a round of
     *  run(); null outside run() and between its rounds. */
    static thread_local WorkerContext *tlsWorker_;

    /** Solver/profiler for the calling thread: the worker's own
     *  inside a round, the engine-level ones otherwise. */
    solver::Solver &curSolver();
    obs::PhaseProfiler &curProfiler();

    /** One worker's exploration loop over its shard of `queue`. */
    void workerLoop(WorkerContext &w, WorkQueue &queue,
                    std::chrono::steady_clock::time_point start,
                    uint64_t start_instr);
    /** Incremental footprint accounting: the state's owner publishes
     *  the change in its share of the pool-wide total (an inactive
     *  state's share drops to 0) and raises the watermark. */
    void accountStateMemory(ExecutionState &state);
    /** Active-set membership by stored slot (statesMutex_ held). */
    void addActive(ExecutionState &state);
    void removeActive(ExecutionState &state);
    /** Drop a terminated state from the active set and the Searcher,
     *  emit its kill event and release its resources. */
    void retireState(ExecutionState &state);

    /** Schedule-independent symbolic variable name:
     *  `<base>@<pathId>#<per-path-seq>`. */
    std::string symName(ExecutionState &state, const std::string &base);

    dbt::CodeReader codeReaderFor(ExecutionState &state);
    vm::DeviceBus deviceBusFor(ExecutionState &state);
    std::shared_ptr<dbt::TranslationBlock> fetchBlock(ExecutionState &state);

    /** Execute one TB. Returns false when the state stopped. */
    bool executeBlock(ExecutionState &state);
    void deliverInterrupts(ExecutionState &state);
    void enterInterrupt(ExecutionState &state, unsigned vector,
                        uint32_t return_pc);

    Value packFlags(ExecutionState &state) const;
    void unpackFlags(ExecutionState &state, const Value &word);

    /** Handle a branch condition; returns chosen target. Concrete
     *  conditions take the fast path (checked against the log in
     *  replay mode); symbolic ones go to resolveSymbolicBranch and
     *  the outcome is recorded when witness recording is on. */
    uint32_t handleBranch(ExecutionState &state, const Value &cond,
                          uint32_t branch_pc, uint32_t taken_pc,
                          uint32_t fallthrough_pc);

    /** Symbolic-branch resolution (policy / solver / fork). */
    uint32_t resolveSymbolicBranch(ExecutionState &state, const Value &cond,
                                   uint32_t branch_pc, uint32_t taken_pc,
                                   uint32_t fallthrough_pc);

    /** Fork the state on `condition`; parent takes the true side. */
    ExecutionState *fork(ExecutionState &state, ExprRef condition);

    /** Publish children forked during the last block(s) to worker
     *  `worker`'s shard. Called at block boundaries and after each
     *  slice. */
    void flushPendingChildren(ExecutionState &state, WorkQueue &queue,
                              unsigned worker);

    /** A must-answer solver query returned Unknown: kill the state
     *  with StateStatus::SolverFailure (never misreport as Unsat). */
    void solverFailState(ExecutionState &state, const char *site,
                         const solver::QueryOutcome &outcome,
                         const std::string &message);

    /** Resolve a load at a symbolic address via the window/ite scheme. */
    Value symbolicLoad(ExecutionState &state, const Value &addr,
                       unsigned len);

    Value loadFrom(ExecutionState &state, uint32_t addr, unsigned len,
                   bool sign_extend);
    bool storeTo(ExecutionState &state, uint32_t addr, const Value &value,
                 unsigned len);

    Value ioRead(ExecutionState &state, uint32_t port);
    void ioWrite(ExecutionState &state, uint32_t port, const Value &value);

    void execS2Op(ExecutionState &state, const dbt::MicroOp &op,
                  const std::vector<Value> &temps, uint32_t instr_pc,
                  uint32_t next_pc, uint32_t *next_pc_out);

    // --- Record/replay witnesses --------------------------------------

    /** Append a nondeterminism event to the state's log (recording
     *  mode only; no-op otherwise). */
    void recordEvent(ExecutionState &state, replay::SiteKind kind,
                     uint32_t pc, uint32_t a, uint32_t b,
                     std::vector<std::string> vars = {});

    /** Queue an eligible terminated state for witness extraction.
     *  Runs exactly once per state, from releaseStateResources. */
    void maybeEmitWitness(ExecutionState &state);

    /** A retired state waiting for its witness, and the slot of
     *  witnesses_ reserved for it when it was queued. */
    struct WitnessJob {
        const ExecutionState *state = nullptr;
        size_t slot = 0;
    };
    /** Extract a job's witness on `ws` and store it in its slot. */
    void runWitnessJob(const WitnessJob &job, replay::WitnessSolver &ws);
    /** Run queued jobs, oldest first, on `ws` until the queue is empty
     *  (a worker whose round ran out of states helps the extraction
     *  thread). */
    void drainWitnesses(replay::WitnessSolver &ws);
    /** The extraction thread: drains the queue whenever it is
     *  non-empty, until witnessStop_ is set and the queue is empty. */
    void witnessThreadLoop(replay::WitnessSolver &ws);

    /** Latch a replay divergence and kill the state. */
    void replayDiverge(ExecutionState &state, const std::string &what);

    /** Replay-mode guts of the nondeterminism sites. */
    std::optional<uint64_t> replaySubstitute(ExecutionState &state,
                                             replay::SiteKind kind,
                                             uint32_t a, uint32_t b);
    ExecutionState *replayApiFork(ExecutionState &state);

    // --- State lifecycle ----------------------------------------------

    /**
     * Idempotent terminal-resource release: drops the incremental
     * solver context and deletes any spill image. Every termination
     * path (retireState, merge absorption, parked kills) funnels
     * through here exactly once per state, so neither resource can
     * leak or be double-released — including states killed while
     * spilled.
     */
    void releaseStateResources(ExecutionState &state);

    /** Serialize + drop a resident state; on write failure the state
     *  is re-pinned in memory instead. Returns true when spilled. */
    bool spillState(ExecutionState &state);

    /** Bring a spilled state back before executing it. On failure the
     *  state is killed with StateStatus::SpillFailure; returns false. */
    bool restoreState(ExecutionState &state);

    /** Park a state that hit an s2e_merge point (drops it from the
     *  active set until the merge barrier drains). */
    void parkForMerge(ExecutionState &state);

    /**
     * Merge barrier: called only when no state is executing (a round
     * of run() has joined), so arrival at each merge pc is complete.
     * Pools are drained in deterministic order (pc, then pathId),
     * compatible siblings fold left into the survivor, and survivors
     * are reactivated.
     */
    void drainMergePool();

    /** Budget exhaustion with states parked at merge points: kill and
     *  release them (they are no longer in active_ or any queue). */
    void killParkedStates();

    /** Resident-state counter transitions (peak statistics). */
    void residentInc();
    void residentDec();

    vm::MachineConfig machine_;
    EngineConfig config_;
    ConsistencyPolicy policy_;
    ExprBuilder builder_;
    solver::Solver solver_;
    EventHub events_;
    Stats stats_;
    obs::PhaseProfiler profiler_;

    /** Pre-registered Stats slots for per-event counters: the run
     *  loop bumps these through plain pointers, never a map lookup. */
    struct HotCounters {
        uint64_t *translations = nullptr;
        uint64_t *instructions = nullptr;
        uint64_t *forks = nullptr;
        uint64_t *forksSuppressedBudget = nullptr;
        uint64_t *forksSuppressedDegraded = nullptr;
        uint64_t *cfgForks = nullptr;
        uint64_t *envBranchConcretizations = nullptr;
        uint64_t *symValuesCreated = nullptr;
        uint64_t *symPointerLoads = nullptr;
        uint64_t *symPointerStores = nullptr;
        uint64_t *symPointerWindowConstrained = nullptr;
        uint64_t *symPointerMaxWindow = nullptr;
        uint64_t *symbolicHardwareReads = nullptr;
        uint64_t *dmaConcretizations = nullptr;
        uint64_t *interruptsDelivered = nullptr;
        uint64_t *solverDegraded = nullptr;
        uint64_t *solverFailures = nullptr;
        uint64_t *memoryHighWatermark = nullptr;
        uint64_t *maxActiveStates = nullptr;
        uint64_t *uopsExecuted = nullptr;
        uint64_t *uopsPreOpt = nullptr;
        uint64_t *statesMerged = nullptr;
        uint64_t *statesSpilled = nullptr;
        uint64_t *statesRestored = nullptr;
        uint64_t *spillBytes = nullptr;
        uint64_t *spillRetries = nullptr;
        uint64_t *spillWriteFailures = nullptr;
        uint64_t *residentStatesPeak = nullptr;
        uint64_t *witnessesEmitted = nullptr;
        uint64_t *witnessExtractFailures = nullptr;
        uint64_t *witnessesSkipped = nullptr;
        uint64_t *witnessComponentSolves = nullptr;
        uint64_t *witnessComponentHits = nullptr;
        uint64_t *witnessBacklogPeak = nullptr;
        double *witnessExtractSeconds = nullptr;
        uint64_t *replayDivergences = nullptr;
    } hot_;
    SiteCounterCache concretizationSites_;
    SiteCounterCache degradeSites_;
    SiteCounterCache solverFailureSites_;

    dbt::Translator translator_;
    dbt::TbCache tbCache_;
    std::unique_ptr<Searcher> searcher_;

    // State bookkeeping. statesMutex_ guards states_/active_/
    // nextStateId_; searcherMutex_ guards searcher_ and every call
    // into it; killMutex_ serializes the (rare) status transitions so
    // a cross-thread kill cannot race the owner's own termination;
    // mergeMutex_ guards mergePool_. Lock order: searcherMutex_ is
    // innermost — taken alone, or inside statesMutex_ (fork, retire,
    // setSearcher) or a WorkQueue shard mutex (select); killMutex_ and
    // mergeMutex_ are leaves; statesMutex_ and a shard mutex are never
    // held together.
    mutable std::mutex statesMutex_;
    std::mutex searcherMutex_;
    std::mutex killMutex_;
    std::mutex mergeMutex_;
    std::vector<std::unique_ptr<ExecutionState>> states_;
    /** Unordered (removal swaps in the last slot); the order the
     *  Searcher sees lives in the WorkQueue shards. */
    std::vector<ExecutionState *> active_;
    int nextStateId_ = 0;

    /** A run budget tripped: every worker kills its shard. */
    std::atomic<bool> budgetExhausted_{false};
    /** Kills of a state other than the killer's own running one; a
     *  worker that sees it move sweeps its shard for terminated
     *  states. */
    std::atomic<uint64_t> asyncKills_{0};
    /** Sum of live states' accounted footprints. */
    std::atomic<uint64_t> currentMemBytes_{0};

    // State-lifecycle machinery.
    std::unique_ptr<lifecycle::StateSerializer> serializer_;
    std::unique_ptr<lifecycle::SpillStore> spillStore_;
    /** States parked at s2e_merge points, keyed by merge pc. */
    std::map<uint32_t, std::vector<ExecutionState *>> mergePool_;
    /** Currently resident (unspilled) active states. */
    std::atomic<uint64_t> residentStates_{0};

    // Record/replay machinery. recording_ is fixed at construction
    // (emitWitnesses, feasible model, not replaying). replayCursor_ is
    // non-null only in replay mode, which always runs one worker.
    //
    // Witness extraction is off the exploration path: the termination
    // funnel queues an eligible state, and the extraction thread run()
    // starts (or a worker with nothing left to run) extracts it. A
    // queued state is retired and read-only: from enqueue on, nothing
    // writes the fields extraction reads (constraints, replayLog, cpu,
    // status, exitCode, instrCount, blockCount, the path id). The
    // enqueue is the last step of releaseStateResources; after it only
    // accountedBytes changes. witnessMutex_ guards witnesses_, the
    // queue and the pending count. A job's witness goes to the slot
    // reserved at enqueue, so witnesses_ keeps retirement order
    // whichever thread finishes first (null until then, and for
    // failed extractions).
    bool recording_ = false;
    mutable std::mutex witnessMutex_;
    std::vector<std::shared_ptr<const replay::Witness>> witnesses_;
    std::deque<WitnessJob> witnessQueue_;
    /** Jobs queued or being extracted; run() waits for 0. */
    size_t witnessesPending_ = 0;
    bool witnessStop_ = false;
    /** witnessWork_ wakes the extraction thread (a job, or the stop);
     *  witnessIdle_ wakes run() once no job is pending. */
    std::condition_variable witnessWork_;
    std::condition_variable witnessIdle_;
    replay::ComponentModels witnessModels_;
    std::unique_ptr<replay::ReplayCursor> replayCursor_;
};

} // namespace s2e::core

#endif // S2E_CORE_ENGINE_HH
