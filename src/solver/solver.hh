/**
 * @file
 * Top-level constraint solver used by the symbolic execution engine.
 *
 * A query is a set of path constraints plus (optionally) a query
 * expression. The pipeline mirrors KLEE's solver chain, rebuilt from
 * scratch: bitfield simplification -> constant/known-bits fast path ->
 * constraint independence slicing -> counterexample (model) cache ->
 * bit-blasting -> CDCL SAT.
 *
 * Resilience layer: every query runs under a QueryBudget (conflict +
 * wall-clock limits) with one optional retry at an escalated budget,
 * and every public method returns a tri-state QueryOutcome — Unknown
 * is a first-class answer that callers must handle explicitly (the
 * engine degrades gracefully instead of silently dropping paths). A
 * deterministic FaultPolicy shim can force Unknown on chosen queries
 * so every degradation path is exercisable in tests and benchmarks.
 */

#ifndef S2E_SOLVER_SOLVER_HH
#define S2E_SOLVER_SOLVER_HH

#include <memory>
#include <optional>
#include <vector>

#include "expr/builder.hh"
#include "expr/eval.hh"
#include "expr/simplify.hh"
#include "expr/vars.hh"
#include "obs/profiler.hh"
#include "solver/sat.hh"
#include "support/rng.hh"
#include "support/stats.hh"

namespace s2e::solver {

class IncrementalContext;

using expr::Assignment;
using expr::ExprRef;
using sat::QueryBudget;

/** Solver feature switches (benchmarkable ablations) and budgets. */
struct SolverOptions {
    bool useSimplifier = true;   ///< §5 bitfield simplifier
    /** Constraint independence slicing. Off, the solver decides
     *  exactly the constraint set it is given: the reference that
     *  SliceDifferential.MemoizedSliceMatchesReference checks the
     *  slicing against. */
    bool useIndependence = true;
    /** Counterexample cache / model reuse. Off, every answer comes
     *  from SAT, independent of query history: the differential
     *  harness (tests/support/differential.hh) turns it off so path
     *  sets compare across schedules. */
    bool useModelCache = true;
    /** Per-path incremental SAT contexts (activation-literal guarded
     *  constraint reuse; see context.hh). Only effective while a path
     *  context slot is bound (bindPathContext); with no slot, or with
     *  this off, every query builds a fresh solver — the differential
     *  oracle the incremental path is validated against. */
    bool useIncremental = true;
    uint64_t maxCtxGates = 1u << 18;   ///< ctx eviction high-water (gates)
    uint64_t maxCtxClauses = 1u << 19; ///< ditto (clauses incl. learnts)
    int64_t maxConflicts = -1;   ///< SAT conflict budget per query
    int64_t maxMicros = -1;      ///< wall-clock budget per query (µs)
    double retryMultiplier = 4.0; ///< budget escalation factor per retry
    unsigned maxRetries = 1;      ///< escalated-budget passes before Unknown
};

/**
 * Fixed-capacity ring of recent solver models (the counterexample
 * cache's backing store). Insertion past capacity overwrites the
 * oldest entry in O(1) — the previous std::vector backing paid an
 * O(n) erase(begin()) shift on every insertion once full — and
 * assignments identical to a cached one are skipped entirely (repeat
 * queries otherwise flush the older, still-useful models).
 */
class ModelRing
{
  public:
    explicit ModelRing(size_t capacity = 64) : cap_(capacity) {}

    /** Store a model unless an identical assignment is already
     *  cached; returns false when skipped as a duplicate. */
    bool
    insert(Assignment a)
    {
        for (const Assignment &m : ring_)
            if (m.values() == a.values())
                return false;
        if (ring_.size() < cap_) {
            ring_.push_back(std::move(a));
        } else {
            ring_[next_] = std::move(a);
            next_ = (next_ + 1) % cap_;
        }
        return true;
    }

    size_t size() const { return ring_.size(); }
    size_t capacity() const { return cap_; }

    /** First model (newest insertion first) satisfying `pred`, or
     *  nullptr. Newest-first keeps the hottest models cheapest. */
    template <typename Pred>
    const Assignment *
    findNewestFirst(Pred pred) const
    {
        size_t n = ring_.size();
        for (size_t k = 0; k < n; ++k) {
            // While filling, newest is the back; once full, the slot
            // before next_ (the overwrite cursor) is newest.
            size_t idx = n < cap_ ? n - 1 - k
                                  : (next_ + 2 * cap_ - 1 - k) % cap_;
            if (pred(ring_[idx]))
                return &ring_[idx];
        }
        return nullptr;
    }

  private:
    size_t cap_;
    std::vector<Assignment> ring_;
    size_t next_ = 0; ///< overwrite cursor, meaningful once full
};

/** Outcome of a satisfiability check. */
enum class CheckResult { Sat, Unsat, Unknown };

/**
 * Tri-state result of one solver query plus its resource telemetry.
 *
 * For predicate-style queries (mayBeTrue / mustBeTrue / the two sides
 * of checkBranch) `result` encodes the *answer*: Sat = definitely yes,
 * Unsat = definitely no, Unknown = the solver gave up inside its
 * budget. There is deliberately no conversion to bool: collapsing
 * Unknown silently is exactly the unsoundness this type exists to
 * prevent — call yes()/no()/isUnknown() and take an explicit action.
 */
struct QueryOutcome {
    CheckResult result = CheckResult::Unknown;
    uint64_t conflicts = 0; ///< SAT conflicts spent (all attempts)
    uint64_t micros = 0;    ///< wall-clock microseconds spent
    bool timedOut = false;  ///< Unknown caused by the wall deadline
                            ///< (or an injected fault), not conflicts
    unsigned retries = 0;   ///< escalated-budget re-solves used

    bool isSat() const { return result == CheckResult::Sat; }
    bool isUnsat() const { return result == CheckResult::Unsat; }
    bool isUnknown() const { return result == CheckResult::Unknown; }

    /** Definite-answer accessors for predicate-style queries. */
    bool yes() const { return isSat(); }
    bool no() const { return isUnsat(); }
};

/**
 * Deterministic solver fault injection (the paper's hardware
 * fault-injection idea from DDT, pointed at the solver itself): forces
 * Unknown on selected queries so engine degradation paths can be
 * exercised deterministically. Queries are numbered from 1, counting
 * from the moment the policy is installed.
 */
struct FaultPolicy {
    bool enabled = false;
    uint64_t seed = 0x5eedULL;   ///< seed for the rate-based trigger
    double unknownRate = 0.0;    ///< fraction of queries forced Unknown
    std::vector<uint64_t> triggerQueries; ///< explicit 1-based indices
};

/**
 * The solver facade. All methods are complete decision procedures
 * over 1..64-bit bitvector expressions (no arrays: symbolic memory is
 * lowered to ite chains by the memory model, as in the paper's
 * page-passing scheme) — modulo the per-query budget, which turns
 * blow-ups into Unknown outcomes instead of unbounded stalls.
 *
 * Contract with independence slicing enabled (the default): query
 * methods answer relative to the *satisfiable-constraint-set
 * invariant* the engine maintains for every path — constraints that
 * share no variables (transitively) with the query are assumed
 * satisfiable and sliced away. To decide raw satisfiability of an
 * arbitrary constraint set, use getInitialValues() (which never
 * slices) or disable useIndependence.
 */
class Solver
{
  public:
    explicit Solver(expr::ExprBuilder &builder, SolverOptions opts = {});

    /** Is `constraints && expr` satisfiable? Fills model if non-null
     *  on a Sat result. */
    QueryOutcome checkSat(const std::vector<ExprRef> &constraints,
                          ExprRef expr, Assignment *model = nullptr);

    /** May `expr` be true under the constraints? (Sat = yes.) */
    QueryOutcome mayBeTrue(const std::vector<ExprRef> &constraints,
                           ExprRef expr);

    /** Must `expr` be true under the constraints? (Sat = yes.) */
    QueryOutcome mustBeTrue(const std::vector<ExprRef> &constraints,
                            ExprRef expr);

    /** Both directions with one entry point (forking uses this).
     *  Each side is the tri-state feasibility of that branch. */
    struct BranchFeasibility {
        QueryOutcome trueSide;
        QueryOutcome falseSide;
    };
    BranchFeasibility checkBranch(const std::vector<ExprRef> &constraints,
                                  ExprRef cond);

    /**
     * A concrete value for `expr` consistent with the constraints.
     * Fills *value on a Sat result; Unsat means the (sliced)
     * constraint set is infeasible, Unknown that the solver gave up.
     */
    QueryOutcome getValue(const std::vector<ExprRef> &constraints,
                          ExprRef expr, uint64_t *value);

    /**
     * Satisfying assignment covering every variable in the constraint
     * set (used to produce test cases / crash inputs). Fills *model on
     * a Sat result.
     */
    QueryOutcome getInitialValues(const std::vector<ExprRef> &constraints,
                                  Assignment *model);

    /**
     * Minimum and maximum of expr under the constraints (binary search
     * over feasibility bounds). Fills min_out and max_out on Sat; any
     * sub-query giving up yields an Unknown outcome (never a bogus
     * range). Telemetry aggregates over all sub-queries.
     */
    QueryOutcome getRange(const std::vector<ExprRef> &constraints,
                          ExprRef expr, uint64_t *min_out,
                          uint64_t *max_out);

    /** Install (or clear) the fault-injection shim. Resets the query
     *  counter and the policy RNG so runs are reproducible. */
    void setFaultPolicy(const FaultPolicy &policy);
    const FaultPolicy &faultPolicy() const { return faultPolicy_; }

    /** Queries issued since construction / the last setFaultPolicy. */
    uint64_t queryCount() const { return queryCounter_; }

    /** Fold a quiescent solver's telemetry and query count into this
     *  one (the engine folds its workers' solvers after a run). */
    void
    mergeFrom(Solver &other)
    {
        stats_.mergeFrom(other.stats_);
        queryCounter_ += other.queryCounter_;
    }

    Stats &stats() { return stats_; }
    const SolverOptions &options() const { return opts_; }

    /** Per-root variable sets memoized by this solver. Confined, like
     *  the solver, to one thread at a time; the witness extractor
     *  borrows the calling worker's. */
    expr::VarSets &varSets() { return varSets_; }

    /** Attach the engine's phase profiler: every query then runs
     *  under a Solver span (nullptr detaches; never owned). */
    void setProfiler(obs::PhaseProfiler *profiler) { profiler_ = profiler; }

    /**
     * Bind the current path's incremental-context slot (the
     * ExecutionState field). The engine binds before executing a
     * state's timeslice and unbinds (nullptr) when done; while bound
     * and useIncremental is on, SAT-reaching queries go through the
     * persistent context, which the solver creates into the slot
     * lazily and evicts when it outgrows the configured high-water
     * marks. The slot must outlive the binding.
     */
    void
    bindPathContext(std::shared_ptr<IncrementalContext> *slot)
    {
        ctxSlot_ = slot;
    }

    /**
     * Independence slice: the constraints that share variables with
     * `expr`, transitively, in their original order (all of them with
     * useIndependence off). Adds the number dropped to
     * solver.constraints_sliced_away.
     */
    std::vector<ExprRef>
    sliceIndependent(const std::vector<ExprRef> &constraints, ExprRef expr);

  private:
    QueryOutcome solveSat(const std::vector<ExprRef> &constraints,
                          ExprRef expr, Assignment *model);
    bool tryCachedModels(const std::vector<ExprRef> &constraints,
                         ExprRef expr, Assignment *model);
    bool faultTriggers(uint64_t query_index);

    expr::ExprBuilder &builder_;
    expr::Simplifier simplifier_;
    SolverOptions opts_;
    Stats stats_;
    obs::PhaseProfiler *profiler_ = nullptr;

    /** Pre-registered Stats slots for the per-query telemetry: the
     *  query path updates these through plain pointers. */
    struct HotStats {
        uint64_t *queries = nullptr;
        uint64_t *unknownResults = nullptr;
        uint64_t *maxQueryMicros = nullptr;
        uint64_t *faultsInjected = nullptr;
        uint64_t *constraintsSlicedAway = nullptr;
        uint64_t *modelCacheHits = nullptr;
        uint64_t *cacheSat = nullptr;
        uint64_t *satQueries = nullptr;
        uint64_t *satConflicts = nullptr;
        uint64_t *satDecisions = nullptr;
        uint64_t *maxGates = nullptr;
        uint64_t *ctxReuses = nullptr;
        uint64_t *gatesSaved = nullptr;
        uint64_t *ctxEvictions = nullptr;
        uint64_t *retries = nullptr;
        uint64_t *timeouts = nullptr;
        uint64_t *branchShortCircuits = nullptr;
        double *time = nullptr;
        double *simplifyTime = nullptr;
        double *satTime = nullptr;
    } hot_;
    ModelRing recentModels_; ///< bounded model cache
    expr::VarSets varSets_;
    expr::Evaluator evaluator_; ///< model-cache probe, getValue
    /** sliceIndependent scratch, kept to avoid per-query allocation. */
    std::vector<uint64_t> sliceVars_, sliceMerged_;
    std::vector<char> sliceIncluded_;
    /** Bound path-context slot (owned by the current ExecutionState);
     *  nullptr outside engine timeslices. */
    std::shared_ptr<IncrementalContext> *ctxSlot_ = nullptr;
    FaultPolicy faultPolicy_;
    Rng faultRng_;
    uint64_t queryCounter_ = 0;
};

} // namespace s2e::solver

#endif // S2E_SOLVER_SOLVER_HH
