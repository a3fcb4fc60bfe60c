#pragma once

/**
 * @file
 * Concrete witness replay.
 *
 * ReplayCursor is the engine-side driver of replay mode: a single
 * ordered cursor over the witness event log. Each nondeterminism site
 * the replayed execution reaches must match the next recorded event
 * (kind, instruction-count stamp, pc and operands) — substitution
 * sites (symbolic inputs, port/MMIO reads) then install the recorded
 * concrete value instead of creating a symbolic variable, and check
 * sites (branch outcomes, interrupt deliveries, plugin forks) verify
 * the execution takes the recorded direction. The first mismatch
 * latches a divergence report; later sites never overwrite it.
 *
 * ReplayEngine wraps an Engine configured for replay (one worker, solver
 * disconnected) and turns the run into a ReplayResult verdict.
 */

#include <memory>
#include <string>

#include "core/engine.hh"
#include "core/replay/witness.hh"

namespace s2e::core::replay {

/** Engine-side replay driver; one per replay-mode Engine. */
class ReplayCursor
{
  public:
    explicit ReplayCursor(std::shared_ptr<const Witness> witness);

    const Witness &witness() const { return *witness_; }

    /**
     * Consume the next event, which must match (kind, instr, pc, a, b)
     * exactly. Returns the event, or null after latching a divergence.
     */
    const NondetEvent *expect(SiteKind kind, uint64_t instr, uint32_t pc,
                              uint32_t a, uint32_t b);

    /** Consume the next event as an ApiFork at (instr, pc); the
     *  recorded role is the caller's output, not an input. */
    const NondetEvent *expectApiFork(uint64_t instr, uint32_t pc);

    /**
     * Check a concrete branch resolution against the log. Consumes the
     * next event only when it is a Branch stamped at exactly this
     * (instr, branch_pc) — other concrete branches were concrete in
     * the original run too and are not logged. Returns false after
     * latching a divergence (wrong direction, or a pending recorded
     * site whose stamp this execution has already passed).
     */
    bool checkBranch(uint64_t instr, uint32_t branch_pc, uint32_t chosen);

    /** Detect running past the recorded terminal instruction count.
     *  Returns true (and latches a divergence) on overrun. */
    bool checkOverrun(uint64_t instr);

    /** Concrete value of a recorded input variable. */
    bool inputValue(const std::string &name, uint64_t *value) const;

    /** Latch a divergence discovered by the engine itself (e.g. a
     *  symbolic value surviving into replay). */
    void forceDiverge(const std::string &what);

    bool diverged() const { return diverged_; }
    /** First-mismatch report; empty until a divergence latches. */
    const std::string &divergence() const { return divergence_; }

    size_t consumed() const { return next_; }
    bool allConsumed() const
    {
        return next_ == witness_->events.size();
    }

    /** The state currently representing the witness path (follows the
     *  child across ApiFork re-forks). */
    ExecutionState *leaf() const { return leaf_; }
    void setLeaf(ExecutionState *state) { leaf_ = state; }

  private:
    void diverge(std::string what);
    std::string describe(const NondetEvent &ev) const;

    std::shared_ptr<const Witness> witness_;
    size_t next_ = 0;
    bool diverged_ = false;
    std::string divergence_;
    ExecutionState *leaf_ = nullptr;
};

/** Verdict of one witness replay. */
struct ReplayResult {
    /** Replay reached the recorded terminal (status, pc, instruction
     *  count, exit code) with every nondeterminism site matched. */
    bool ok = false;
    /** First-mismatch report when !ok. */
    std::string divergence;
    uint8_t terminalStatus = 0;
    uint32_t terminalPc = 0;
    uint64_t terminalInstr = 0;
    /** Engine-solver queries issued during the replay (0 for a
     *  well-formed replay: the solver is structurally disconnected). */
    uint64_t solverQueries = 0;
    /** Instructions replayed and wall time (replay_instr_per_sec). */
    uint64_t instructions = 0;
    double wallSeconds = 0;

    double
    instrPerSec() const
    {
        return wallSeconds > 0 ? static_cast<double>(instructions) /
                                     wallSeconds
                               : 0.0;
    }
};

/**
 * Post-run verdict for an engine that ran in replay mode: first
 * divergence if any, else unconsumed-events / terminal-outcome
 * checks against the witness. Fills everything except instructions
 * and wallSeconds (the caller has the RunResult).
 */
ReplayResult replayVerdict(Engine &engine);

/**
 * A full replay harness around one Engine in replay mode. Build it,
 * re-apply the workload's setup calls (makeMemSymbolic etc. — replay
 * consumes them as substitution events) and plugins on engine(), then
 * run(). The engine is forced to one worker with witness emission off; a
 * bare replay issues zero solver queries.
 */
class ReplayEngine
{
  public:
    ReplayEngine(vm::MachineConfig machine, EngineConfig config,
                 std::shared_ptr<const Witness> witness);

    Engine &engine() { return *engine_; }

    /** Execute the replay and return the verdict. */
    ReplayResult run();

  private:
    std::unique_ptr<Engine> engine_;
};

} // namespace s2e::core::replay
