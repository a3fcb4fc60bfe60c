#pragma once

/**
 * @file
 * Witness extraction: turn a terminated ExecutionState into a
 * complete concrete replay witness (core/replay/witness.hh).
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/replay/witness.hh"
#include "expr/eval.hh"
#include "expr/expr.hh"
#include "solver/solver.hh"

namespace s2e::expr {
class ExprBuilder;
}

namespace s2e::core {

class ExecutionState;

namespace replay {

/**
 * Satisfying models of independent constraint components, keyed by
 * the component's constraint sequence (path order).
 *
 * A component's model comes from a fresh deterministic solver, so it
 * is a pure function of its key: a hit returns exactly what a re-solve
 * would, and neither the fill order nor clearing the table can change
 * a witness. Concurrent fills of one key store the same model, so the
 * mutex only guards the map.
 *
 * Keys are raw `ExprRef`s, which stay valid (and unique per structure)
 * only as long as the `ExprBuilder` that interned them. A table
 * therefore belongs to one Engine and its builder, and anything that
 * ever compacts or frees builder nodes must clear() it first.
 *
 * The table holds at most kMaxEntries components and is cleared
 * wholesale when an insert would pass that.
 */
class ComponentModels
{
  public:
    using Key = std::vector<expr::ExprRef>;

    static constexpr size_t kMaxEntries = 8192;

    /** Add the model cached for `key` to `model`; false on a miss. */
    bool lookup(const Key &key, expr::Assignment &model) const;

    /** Cache `model`, a Sat answer for exactly the constraints `key`.
     *  False when the table already held `key` (a concurrent fill). */
    bool insert(const Key &key, const expr::Assignment &model);

    void clear();
    size_t size() const;

  private:
    struct KeyHash {
        size_t operator()(const Key &key) const;
    };
    /** (variable id, value) pairs, sorted by id. */
    using Model = std::vector<std::pair<uint64_t, uint64_t>>;

    mutable std::mutex mu_;
    std::unordered_map<Key, Model, KeyHash> table_;
};

/**
 * What witness extraction solves and validates with, reused path
 * after path: a Solver with the model cache and incremental contexts
 * off, and the Evaluator that checks each completed assignment.
 *
 * Only memo state outlives a path: the simplifier memo, the solver's
 * variable-set memo and the evaluators' tables. Each of them returns
 * what a fresh one would, and every SAT query still gets a fresh
 * SatSolver and BitBlaster, so a component's model stays a function
 * of the component alone. One WitnessSolver belongs to one thread at
 * a time, like a worker's Solver.
 */
struct WitnessSolver {
    WitnessSolver(expr::ExprBuilder &builder,
                  const solver::SolverOptions &baseOptions,
                  obs::PhaseProfiler *profiler);

    solver::Solver solver;
    expr::Evaluator validator;
};

/** Outcome of extractWitness: a witness, or an error explaining why
 *  extraction failed (never a partial witness). */
struct ExtractResult {
    std::shared_ptr<const Witness> witness;
    std::string error;
    /**
     * Components this extraction solved and added to the table (or
     * failed to solve), and components the table held: found at lookup,
     * or filled by a concurrent extraction while this one solved. So
     * the counts do not depend on how extractions interleave: without a
     * clear, an engine's solves are its distinct components.
     */
    uint64_t componentSolves = 0;
    uint64_t componentHits = 0;
};

/**
 * Extract a replay witness from a terminated state.
 *
 * The path constraints are split into independent components (no
 * variable shared across components); the path model is the union of
 * the components' models, each taken from `models` or, on a miss,
 * from `ws.solver` (model cache and incremental contexts disabled,
 * so the model depends only on the component's constraints, never on
 * query history or worker schedule) and then cached. The model is
 * completed over every variable the path created: variables it
 * misses — unconstrained inputs, or variables simplified away during
 * bit-blasting — are pinned by explicit value queries under the
 * model-augmented constraints, never defaulted to zero. The completed
 * assignment is validated by concretely evaluating every path
 * constraint with `ws.validator`; any violation fails the extraction.
 *
 * The queries are charged to the profiler `ws.solver` was given, and
 * the partition reads each constraint's variables from its memo
 * (`ws.solver.varSets()`). `state` is only read: it must be retired,
 * so nothing writes the fields read here while this runs.
 */
ExtractResult extractWitness(const ExecutionState &state,
                             expr::ExprBuilder &builder, WitnessSolver &ws,
                             ComponentModels &models);

} // namespace replay
} // namespace s2e::core
