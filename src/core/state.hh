/**
 * @file
 * Execution state: one node of the symbolic execution tree.
 *
 * An ExecutionState is the paper's ExecState object — the complete
 * virtual machine state along one path: CPU (registers may hold
 * symbolic expressions), COW physical memory, private device copies,
 * the path constraints, the state's own virtual clock, and per-plugin
 * state (PluginState, cloned together with the state on fork).
 */

#ifndef S2E_CORE_STATE_HH
#define S2E_CORE_STATE_HH

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/memory.hh"
#include "core/replay/witness.hh"
#include "core/value.hh"
#include "vm/machine.hh"

namespace s2e::solver {
class IncrementalContext;
}

namespace s2e::core::lifecycle {
struct Checkpoint;
}

namespace s2e::core {

/** CPU register file and execution flags for one path. */
struct CpuState {
    Value regs[isa::kNumRegs];
    uint32_t pc = 0;
    /** Condition flags as 0/1 Values (32-bit wide like the temps). */
    Value flags[4];
    bool intEnabled = false;
    uint32_t pendingIrqs = 0; ///< bitmask of asserted lines
    /** Nesting depth of interrupt handlers (0 = mainline code). */
    uint32_t interruptDepth = 0;
    bool halted = false;
};

/**
 * Base class for plugin per-path state (paper §4.2). A plugin stores
 * its per-path data in a PluginState hanging off the ExecutionState;
 * clone() is called whenever the engine forks.
 */
class PluginState
{
  public:
    virtual ~PluginState() = default;
    virtual std::unique_ptr<PluginState> clone() const = 0;
};

/** Why a state stopped executing. */
enum class StateStatus {
    Running,
    Halted,      ///< guest executed hlt
    Killed,      ///< s2e_kill or a selector killed it
    Aborted,     ///< consistency violation (LC propagation rule)
    Crashed,     ///< guest fault (bad memory access, decode fault...)
    Unsat,       ///< constraints became unsatisfiable (engine bug guard)
    BudgetExceeded,
    SolverFailure, ///< a must-answer solver query returned Unknown
    Merged,        ///< absorbed into a sibling at an s2e_merge point
    SpillFailure,  ///< spill/restore I/O failed beyond all retries
};

const char *stateStatusName(StateStatus status);

/** One path through the system. */
class ExecutionState
{
  public:
    ExecutionState(uint32_t ram_size, const vm::DeviceSet &devices);

    /** Fork: deep-copies devices and plugin states, shares memory COW. */
    std::unique_ptr<ExecutionState> clone(int new_id) const;

    int id() const { return id_; }
    void setId(int id) { id_ = id; }
    int parentId() const { return parentId_; }
    uint32_t forkDepth() const { return forkDepth_; }

    // --- Deterministic path identity ---------------------------------
    //
    // Runtime ids (id()) are assigned in scheduling order, so they
    // differ between serial and parallel runs. The path id is derived
    // purely from the fork tree: the root is "0" and the k-th fork
    // taken by path P creates child "P.k" — identical no matter which
    // worker executes the path or in what order.

    const std::string &pathId() const { return pathId_; }
    void setPathId(std::string path_id) { pathId_ = std::move(path_id); }

    /** Ordinal of the next fork performed by this path (1-based). */
    uint32_t nextForkSeq() { return ++forkSeq_; }

    /** Ordinal for the next symbolic value created on this path; used
     *  to build schedule-independent variable names. */
    uint64_t nextSymSeq() { return symSeq_++; }

    /** Current sequence counters (spill serialization / merge). */
    uint32_t forkSeqValue() const { return forkSeq_; }
    uint64_t symSeqValue() const { return symSeq_; }
    /** Restore counters from a spilled image or a merge (max of the
     *  merged pair keeps future names collision-free). */
    void
    restoreSeqs(uint32_t fork_seq, uint64_t sym_seq)
    {
        forkSeq_ = fork_seq;
        symSeq_ = sym_seq;
    }

    CpuState cpu;
    MemoryState mem;
    vm::DeviceSet devices;

    /** Path constraints (width-1 expressions, all conjoined). */
    std::vector<ExprRef> constraints;

    /**
     * This path's persistent incremental solver context (activation-
     * literal guarded constraints; see solver/context.hh). Created
     * lazily by the bound Solver on the path's first SAT-reaching
     * query; deliberately NOT inherited on fork — a SatSolver is not
     * copyable, so each child rebuilds its own from its constraint
     * set, and the parent keeps the original. Only the worker
     * currently executing the state touches it (the engine binds it
     * per timeslice), so it is thread-confined exactly like the rest
     * of the state, and it is released when the path terminates.
     */
    std::shared_ptr<solver::IncrementalContext> solverCtx;

    // --- Lifecycle (checkpoints / governor / spill / merge) ----------

    /**
     * Hierarchical COW snapshot shared with fork siblings: the frozen
     * page refs and constraint prefix at the last fork. A spilled
     * state only serializes its delta beyond this checkpoint; restore
     * resolves untouched pages through the chain.
     */
    std::shared_ptr<const lifecycle::Checkpoint> checkpoint;

    /** Index in the engine's active set, for O(1) removal (guarded by
     *  the engine's state-registry mutex). */
    size_t activeSlot = 0;

    /** Memory payload lives on disk (pages/constraints dropped). */
    bool spilled = false;
    /** A spill write failed; keep resident, never retry the spill. */
    bool spillPinned = false;
    /** Spill-store key while an image exists on disk. */
    std::string spillKey;

    /** Terminal resources (solver context, spill image, resident
     *  accounting) already released; guards the engine's exactly-once
     *  release contract for states killed via multiple paths. */
    bool resourcesReleased = false;

    /** Killed while not the executing state (sibling sweeps, external
     *  callers): the terminal point is schedule-dependent, so the path
     *  is not witness-eligible. */
    bool killedAsync = false;

    /** Parked at an s2e_merge point, awaiting the barrier drain. */
    bool atMergePoint = false;
    /** How many sibling paths were ITE-merged into this one. */
    uint32_t mergedSiblings = 0;

    /** Children forked during the current block (transient; never
     *  cloned, never spilled). They are fully constructed only once
     *  the forking call returns, so the engine publishes them to the
     *  work queue at the next block boundary. */
    std::vector<ExecutionState *> pendingChildren;

    /** Per-state virtual clock, in executed guest instructions. It
     *  freezes while the state is not scheduled (paper §5). */
    uint64_t instrCount = 0;
    /** Instructions that actually touched symbolic data. */
    uint64_t symInstrCount = 0;
    /** Translation blocks executed. */
    uint64_t blockCount = 0;

    /** Multi-path mode toggle (s2e_ena / s2e_dis opcodes). */
    bool multiPathEnabled = true;

    /** Ordered nondeterminism log feeding witness extraction
     *  (EngineConfig::emitWitnesses). Children inherit the parent's
     *  prefix on fork; empty when recording is off. */
    replay::PathRecord replayLog;

    StateStatus status = StateStatus::Running;
    uint32_t exitCode = 0;
    std::string statusMessage;

    /** The path survived a solver Unknown via a degradation action
     *  (e.g. a suppressed fork): its coverage is best-effort, not
     *  exhaustive. Inherited by children on fork. */
    bool degraded = false;
    /** How many degradation actions this path absorbed. */
    uint32_t degradeCount = 0;

    /**
     * True while the path is still schedulable. Reads the status with
     * an acquire atomic so a worker observing a cross-thread kill (the
     * only remote write a state ever receives) also sees the status
     * message written before it.
     */
    bool
    isActive() const
    {
        auto *self = const_cast<ExecutionState *>(this);
        return std::atomic_ref<StateStatus>(self->status).load(
                   std::memory_order_acquire) == StateStatus::Running;
    }

    /** Atomic (release) status transition; pairs with isActive(). */
    void
    setStatus(StateStatus new_status)
    {
        std::atomic_ref<StateStatus>(status).store(
            new_status, std::memory_order_release);
    }

    void
    addConstraint(ExprRef c)
    {
        S2E_ASSERT(c->width() == 1, "constraint must be width 1");
        if (!c->isTrue())
            constraints.push_back(c);
    }

    // --- Plugin state ------------------------------------------------

    /** Fetch or lazily create this plugin's per-path state. */
    template <typename T>
    T *
    pluginState(const void *plugin_key)
    {
        auto it = pluginStates_.find(plugin_key);
        if (it == pluginStates_.end()) {
            auto created = std::make_unique<T>();
            T *raw = created.get();
            pluginStates_[plugin_key] = std::move(created);
            return raw;
        }
        return static_cast<T *>(it->second.get());
    }

    /** Lookup without creation (may return nullptr). */
    PluginState *
    findPluginState(const void *plugin_key) const
    {
        auto it = pluginStates_.find(plugin_key);
        return it == pluginStates_.end() ? nullptr : it->second.get();
    }

    /** All plugin states (serializer / merge compatibility checks). */
    const std::map<const void *, std::unique_ptr<PluginState>> &
    pluginStates() const
    {
        return pluginStates_;
    }

    /** Install a decoded plugin state (spill restore path). */
    void
    setPluginState(const void *plugin_key,
                   std::unique_ptr<PluginState> plugin_state)
    {
        pluginStates_[plugin_key] = std::move(plugin_state);
    }

    // --- Accounting ----------------------------------------------------

    /** Approximate private memory footprint in bytes (Fig 8 metric):
     *  privatized COW pages + constraint nodes + symbolic bytes. */
    uint64_t memoryFootprint() const;

    /** Last footprint published to the engine's pool-wide total
     *  (written only by the owning worker; see accountStateMemory). */
    uint64_t accountedBytes = 0;

  private:
    ExecutionState(const ExecutionState &) = default;

    int id_ = 0;
    int parentId_ = -1;
    uint32_t forkDepth_ = 0;
    std::string pathId_ = "0";
    uint32_t forkSeq_ = 0;
    uint64_t symSeq_ = 0;
    std::map<const void *, std::unique_ptr<PluginState>> pluginStates_;
};

} // namespace s2e::core

#endif // S2E_CORE_STATE_HH
