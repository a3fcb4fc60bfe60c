#include "core/state.hh"

namespace s2e::core {

const char *
stateStatusName(StateStatus status)
{
    switch (status) {
      case StateStatus::Running: return "running";
      case StateStatus::Halted: return "halted";
      case StateStatus::Killed: return "killed";
      case StateStatus::Aborted: return "aborted";
      case StateStatus::Crashed: return "crashed";
      case StateStatus::Unsat: return "unsat";
      case StateStatus::BudgetExceeded: return "budget-exceeded";
      case StateStatus::SolverFailure: return "solver-failure";
      case StateStatus::Merged: return "merged";
      case StateStatus::SpillFailure: return "spill-failure";
    }
    return "<bad>";
}

ExecutionState::ExecutionState(uint32_t ram_size,
                               const vm::DeviceSet &initial_devices)
    : mem(ram_size), devices(initial_devices)
{
}

std::unique_ptr<ExecutionState>
ExecutionState::clone(int new_id) const
{
    // Private constructor path: field-by-field copy with the pieces
    // that need deep copies handled explicitly.
    auto child = std::unique_ptr<ExecutionState>(
        new ExecutionState(mem.size(), devices));
    child->cpu = cpu;
    child->mem = mem; // COW page sharing
    child->constraints = constraints;
    child->instrCount = instrCount;
    child->symInstrCount = symInstrCount;
    child->blockCount = blockCount;
    child->multiPathEnabled = multiPathEnabled;
    child->replayLog = replayLog; // nondeterminism prefix is shared
    child->status = status;
    child->exitCode = exitCode;
    child->statusMessage = statusMessage;
    child->degraded = degraded;
    child->degradeCount = degradeCount;
    // Fork happens mid-execution, so the parent is resident and not
    // parked: the child starts resident, unpinned and unparked. The
    // checkpoint ref is shared — the engine re-checkpoints the parent
    // right before cloning, so both sides start with an empty delta.
    child->checkpoint = checkpoint;
    child->id_ = new_id;
    child->parentId_ = id_;
    child->forkDepth_ = forkDepth_ + 1;
    // solverCtx is intentionally left null: the child's incremental
    // solver context is rebuilt lazily from its own constraints (a
    // shared context would be mutated from two workers once the child
    // is stolen, and a SatSolver cannot be cloned).
    // The engine overwrites pathId_ with "<parent>.<forkSeq>"; the
    // inherited sequence counters keep sibling numbering deterministic.
    child->pathId_ = pathId_;
    child->forkSeq_ = forkSeq_;
    child->symSeq_ = symSeq_;
    for (const auto &[key, ps] : pluginStates_)
        child->pluginStates_[key] = ps->clone();
    return child;
}

uint64_t
ExecutionState::memoryFootprint() const
{
    uint64_t bytes = sizeof(ExecutionState);
    bytes += mem.privatePages() * (kMemPageSize + 64);
    bytes += mem.symbolicByteCount() * 48;
    uint64_t constraint_nodes = 0;
    for (ExprRef c : constraints)
        constraint_nodes += c->nodeCount();
    bytes += constraint_nodes * 56;
    bytes += devices.size() * 512;
    return bytes;
}

} // namespace s2e::core
