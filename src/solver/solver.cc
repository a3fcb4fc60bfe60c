#include "solver/solver.hh"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <span>

#include "support/bitops.hh"

#include "solver/bitblast.hh"
#include "solver/context.hh"
#include "support/logging.hh"

namespace s2e::solver {

using expr::Kind;

namespace {

/** Do two ascending id sequences share an element? */
bool
intersects(std::span<const uint64_t> a, std::span<const uint64_t> b)
{
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j])
            return true;
        if (a[i] < b[j])
            ++i;
        else
            ++j;
    }
    return false;
}

uint64_t
microsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/** Fold a sub-query's telemetry into an aggregate outcome. */
void
accumulate(QueryOutcome &agg, const QueryOutcome &sub)
{
    agg.conflicts += sub.conflicts;
    agg.micros += sub.micros;
    agg.retries += sub.retries;
    agg.timedOut = agg.timedOut || sub.timedOut;
}

} // namespace

Solver::Solver(expr::ExprBuilder &builder, SolverOptions opts)
    : builder_(builder), simplifier_(builder), opts_(opts),
      faultRng_(faultPolicy_.seed)
{
    // Register the per-query telemetry slots once; solveSat then
    // updates them through plain pointers (no map lookup per query).
    hot_.queries = &stats_.counterSlot("solver.queries");
    hot_.unknownResults = &stats_.counterSlot("solver.unknown_results");
    hot_.maxQueryMicros = &stats_.counterSlot("solver.max_query_micros");
    hot_.faultsInjected = &stats_.counterSlot("solver.faults_injected");
    hot_.constraintsSlicedAway =
        &stats_.counterSlot("solver.constraints_sliced_away");
    hot_.modelCacheHits = &stats_.counterSlot("solver.model_cache_hits");
    hot_.cacheSat = &stats_.counterSlot("solver.cache_sat");
    hot_.satQueries = &stats_.counterSlot("solver.sat_queries");
    hot_.satConflicts = &stats_.counterSlot("solver.sat_conflicts");
    hot_.satDecisions = &stats_.counterSlot("solver.sat_decisions");
    hot_.maxGates = &stats_.counterSlot("solver.max_gates");
    hot_.ctxReuses = &stats_.counterSlot("solver.ctx_reuses");
    hot_.gatesSaved = &stats_.counterSlot("solver.gates_saved");
    hot_.ctxEvictions = &stats_.counterSlot("solver.ctx_evictions");
    hot_.retries = &stats_.counterSlot("solver.retries");
    hot_.timeouts = &stats_.counterSlot("solver.timeouts");
    hot_.branchShortCircuits =
        &stats_.counterSlot("solver.branch_short_circuits");
    hot_.time = &stats_.timerSlot("solver.time");
    hot_.simplifyTime = &stats_.timerSlot("solver.simplify_time");
    hot_.satTime = &stats_.timerSlot("solver.sat_time");
}

void
Solver::setFaultPolicy(const FaultPolicy &policy)
{
    faultPolicy_ = policy;
    faultRng_ = Rng(policy.seed);
    queryCounter_ = 0; // trigger indices are relative to installation
}

bool
Solver::faultTriggers(uint64_t query_index)
{
    if (!faultPolicy_.enabled)
        return false;
    for (uint64_t t : faultPolicy_.triggerQueries)
        if (t == query_index)
            return true;
    // Advance the RNG only when rate-based injection is on, so explicit
    // trigger lists stay deterministic regardless of query volume.
    if (faultPolicy_.unknownRate > 0.0 &&
        faultRng_.chance(faultPolicy_.unknownRate))
        return true;
    return false;
}

std::vector<ExprRef>
Solver::sliceIndependent(const std::vector<ExprRef> &constraints,
                         ExprRef query)
{
    if (!opts_.useIndependence)
        return constraints;

    // Transitive closure of variable sharing, seeded by the query.
    // The active set stays sorted, so each test is one merge walk over
    // a constraint's memoized variable set.
    std::span<const uint64_t> query_vars = varSets_.of(query);
    std::vector<uint64_t> &active = sliceVars_;
    active.assign(query_vars.begin(), query_vars.end());
    std::vector<char> &included = sliceIncluded_;
    included.assign(constraints.size(), 0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < constraints.size(); ++i) {
            if (included[i])
                continue;
            std::span<const uint64_t> vars = varSets_.of(constraints[i]);
            if (!intersects(active, vars))
                continue;
            included[i] = 1;
            changed = true;
            sliceMerged_.clear();
            std::set_union(active.begin(), active.end(), vars.begin(),
                           vars.end(), std::back_inserter(sliceMerged_));
            active.swap(sliceMerged_);
        }
    }

    std::vector<ExprRef> out;
    for (size_t i = 0; i < constraints.size(); ++i)
        if (included[i])
            out.push_back(constraints[i]);
    *hot_.constraintsSlicedAway += constraints.size() - out.size();
    return out;
}

bool
Solver::tryCachedModels(const std::vector<ExprRef> &constraints,
                        ExprRef query, Assignment *model)
{
    if (!opts_.useModelCache)
        return false;
    const Assignment *hit =
        recentModels_.findNewestFirst([&](const Assignment &a) {
            // One memo per model tried: the query and the constraints
            // share subterms.
            evaluator_.reset(a);
            if (!evaluator_.evaluateBool(query))
                return false;
            for (ExprRef c : constraints)
                if (!evaluator_.evaluateBool(c))
                    return false;
            return true;
        });
    if (!hit)
        return false;
    (*hot_.modelCacheHits)++;
    if (model) {
        // Extend-and-verify. Cached models can be partial relative to
        // this query's constraint set (getValue caches models over its
        // *sliced* variables), and evaluation above verified them by
        // treating every absent variable as 0 — so the zero-extension
        // is the assignment that was actually validated. Materialize
        // those zeros: returning the partial model as-is would break
        // the contract that a model covers every constraint variable
        // (consumers treating absent variables as unconstrained could
        // emit invalid test cases).
        Assignment extended = *hit;
        auto zero_extend = [&](ExprRef e) {
            for (uint64_t id : varSets_.of(e))
                if (!extended.has(id))
                    extended.setById(id, 0);
        };
        zero_extend(query);
        for (ExprRef c : constraints)
            zero_extend(c);
        *model = std::move(extended);
    }
    return true;
}

QueryOutcome
Solver::solveSat(const std::vector<ExprRef> &constraints, ExprRef query,
                 Assignment *model)
{
    obs::PhaseSpan span(profiler_, obs::Phase::Solver);
    (*hot_.queries)++;
    ++queryCounter_;

    QueryOutcome out;
    const auto start = std::chrono::steady_clock::now();
    // Record wall time + high-water latency on every exit path.
    struct Finalize {
        QueryOutcome &out;
        HotStats &hot;
        std::chrono::steady_clock::time_point start;
        ~Finalize()
        {
            out.micros = microsSince(start);
            *hot.time += static_cast<double>(out.micros) * 1e-6;
            Stats::raiseTo(*hot.maxQueryMicros, out.micros);
            if (out.result == CheckResult::Unknown)
                (*hot.unknownResults)++;
        }
    } finalize{out, hot_, start};

    // Deterministic fault injection: the shim sits in front of the
    // whole pipeline so every call site sees a realistic Unknown.
    if (faultTriggers(queryCounter_)) {
        (*hot_.faultsInjected)++;
        out.result = CheckResult::Unknown;
        out.timedOut = true; // presents as a wall-clock timeout
        return out;
    }

    // Simplification pass.
    ExprRef q = query;
    std::vector<ExprRef> cs(constraints);
    if (opts_.useSimplifier) {
        ScopedTimer st(*hot_.simplifyTime);
        q = simplifier_.simplify(q);
        for (auto &c : cs)
            c = simplifier_.simplify(c);
    }

    // Constant fast paths.
    if (q->isFalse()) {
        out.result = CheckResult::Unsat;
        return out;
    }
    bool any_false = false;
    for (ExprRef c : cs)
        if (c->isFalse())
            any_false = true;
    if (any_false) {
        out.result = CheckResult::Unsat;
        return out;
    }
    cs.erase(std::remove_if(cs.begin(), cs.end(),
                            [](ExprRef c) { return c->isTrue(); }),
             cs.end());

    // Known-bits fast path on the query alone (sound only when there
    // are no constraints left that could contradict).
    if (cs.empty() && q->isTrue()) {
        if (model)
            *model = Assignment();
        out.result = CheckResult::Sat;
        return out;
    }

    // Independence slicing. Skipped when the caller wants a model:
    // a model must satisfy the *entire* constraint set, including
    // constraints unrelated to the query expression.
    std::vector<ExprRef> sliced = model ? cs : sliceIndependent(cs, q);

    // Model cache.
    if (tryCachedModels(sliced, q, model)) {
        (*hot_.cacheSat)++;
        out.result = CheckResult::Sat;
        return out;
    }

    // Full SAT solving — through the path's persistent incremental
    // context when one is bound, otherwise via a throwaway pair.
    (*hot_.satQueries)++;
    ScopedTimer sat_timer(*hot_.satTime);

    IncrementalContext *ctx = nullptr;
    if (opts_.useIncremental && ctxSlot_) {
        auto &slot = *ctxSlot_;
        // High-water eviction bounds the context's memory: a path
        // whose accumulated gates/clauses outgrow the limits restarts
        // from an empty context holding just this query's slice. Also
        // covers the (unreachable by construction: the guarded clause
        // database is always satisfiable) permanent-conflict case,
        // where reuse would turn every future answer into Unsat.
        if (slot && (slot->overBudget(opts_.maxCtxGates,
                                      opts_.maxCtxClauses) ||
                     slot->sat().inConflict())) {
            slot.reset();
            (*hot_.ctxEvictions)++;
        }
        if (slot)
            (*hot_.ctxReuses)++;
        else
            slot = std::make_shared<IncrementalContext>();
        ctx = slot.get();
    }

    std::optional<sat::SatSolver> freshSat;
    std::optional<BitBlaster> freshBlaster;
    sat::SatSolver *sat;
    BitBlaster *blaster;
    std::vector<sat::Lit> assumptions;
    if (ctx) {
        // Select the active constraint set: one activation literal
        // per sliced constraint plus one for the query expression.
        // Slicing stays sound under assumptions because unselected
        // constraints' guards are free — the solver can switch them
        // off, so they cannot restrict the selected subset.
        uint64_t saved = 0;
        for (ExprRef c : sliced)
            assumptions.push_back(ctx->guardFor(c, &saved));
        assumptions.push_back(ctx->guardFor(q, &saved));
        *hot_.gatesSaved += saved;
        sat = &ctx->sat();
        blaster = &ctx->blaster();
    } else {
        freshSat.emplace();
        freshBlaster.emplace(*freshSat);
        sat = &*freshSat;
        blaster = &*freshBlaster;
        for (ExprRef c : sliced)
            blaster->assertTrue(c);
        blaster->assertTrue(q);
        if (sat->inConflict()) {
            out.result = CheckResult::Unsat;
            return out;
        }
    }

    // Solve under the per-query budget, retrying with an escalated
    // budget on Unknown. The SatSolver keeps its learnt clauses across
    // solve() calls, so a retry resumes the proof instead of redoing it.
    QueryBudget budget{opts_.maxConflicts, opts_.maxMicros};
    sat::SatResult res;
    uint64_t decisions_before = sat->numDecisions();
    for (;;) {
        uint64_t before = sat->numConflicts();
        res = sat->solve(assumptions, budget);
        out.conflicts += sat->numConflicts() - before;
        if (res != sat::SatResult::Unknown)
            break;
        if (out.retries >= opts_.maxRetries || budget.unlimited())
            break;
        ++out.retries;
        (*hot_.retries)++;
        budget = budget.escalated(opts_.retryMultiplier);
    }
    *hot_.satConflicts += out.conflicts;
    *hot_.satDecisions += sat->numDecisions() - decisions_before;
    Stats::raiseTo(*hot_.maxGates, blaster->numGates());

    switch (res) {
      case sat::SatResult::Unsat:
        out.result = CheckResult::Unsat;
        return out;
      case sat::SatResult::Unknown:
        out.result = CheckResult::Unknown;
        out.timedOut = sat->lastStopWasDeadline();
        if (out.timedOut)
            (*hot_.timeouts)++;
        return out;
      case sat::SatResult::Sat: {
        Assignment a;
        if (ctx) {
            // The context has blasted every variable of this path's
            // queries; variables outside the active set carry
            // arbitrary values (their constraints were switched off).
            // Restrict the model to this query's own variables.
            auto restrict_to = [&](ExprRef e) {
                for (uint64_t id : varSets_.of(e)) {
                    if (a.has(id))
                        continue;
                    ExprRef var = builder_.varById(id);
                    if (!blaster->hasVar(var))
                        continue; // simplified away while blasting
                    a.setById(id, blaster->modelValue(var));
                }
            };
            restrict_to(q);
            for (ExprRef c : sliced)
                restrict_to(c);
        } else {
            blaster->forEachModelValue(
                [&](uint64_t id, uint64_t v) { a.setById(id, v); });
        }
        if (opts_.useModelCache)
            recentModels_.insert(a);
        if (model)
            *model = std::move(a);
        out.result = CheckResult::Sat;
        return out;
      }
    }
    panic("unreachable");
}

QueryOutcome
Solver::checkSat(const std::vector<ExprRef> &constraints, ExprRef query,
                 Assignment *model)
{
    return solveSat(constraints, query, model);
}

QueryOutcome
Solver::mayBeTrue(const std::vector<ExprRef> &constraints, ExprRef query)
{
    return checkSat(constraints, query);
}

QueryOutcome
Solver::mustBeTrue(const std::vector<ExprRef> &constraints, ExprRef query)
{
    // must(q) == !may(!q): remap the inner check's answer, keeping
    // Unknown as Unknown (a timed-out refutation proves nothing).
    QueryOutcome inner = checkSat(constraints, builder_.lnot(query));
    QueryOutcome out = inner;
    switch (inner.result) {
      case CheckResult::Unsat: out.result = CheckResult::Sat; break;
      case CheckResult::Sat: out.result = CheckResult::Unsat; break;
      case CheckResult::Unknown: break;
    }
    return out;
}

Solver::BranchFeasibility
Solver::checkBranch(const std::vector<ExprRef> &constraints, ExprRef cond)
{
    BranchFeasibility f;
    f.trueSide = mayBeTrue(constraints, cond);
    // If the true side is *definitely* infeasible, the false side must
    // be feasible (path invariants keep the constraint set satisfiable)
    // and the second query can be skipped. An Unknown true side proves
    // nothing — never short-circuit on it.
    if (f.trueSide.isUnsat()) {
        f.falseSide.result = CheckResult::Sat;
        (*hot_.branchShortCircuits)++;
        return f;
    }
    f.falseSide = mayBeTrue(constraints, builder_.lnot(cond));
    return f;
}

QueryOutcome
Solver::getValue(const std::vector<ExprRef> &constraints, ExprRef query,
                 uint64_t *value)
{
    if (query->isConstant()) {
        if (value)
            *value = query->value();
        QueryOutcome out;
        out.result = CheckResult::Sat;
        return out;
    }
    // Slice to the constraints transitively sharing variables with
    // the query: a value feasible under the slice is feasible under
    // the full set (independent constraints cannot restrict it, given
    // the path invariant that the full set is satisfiable). Without
    // this, concretization cost grows with the whole path history.
    std::vector<ExprRef> sliced = sliceIndependent(constraints, query);
    Assignment model;
    QueryOutcome out = solveSat(sliced, builder_.trueExpr(), &model);
    if (out.isSat() && value) {
        evaluator_.reset(model);
        *value = evaluator_.evaluate(query);
    }
    return out;
}

QueryOutcome
Solver::getInitialValues(const std::vector<ExprRef> &constraints,
                         Assignment *model)
{
    Assignment a;
    QueryOutcome out = checkSat(constraints, builder_.trueExpr(), &a);
    if (out.isSat() && model)
        *model = std::move(a);
    return out;
}

QueryOutcome
Solver::getRange(const std::vector<ExprRef> &constraints, ExprRef query,
                 uint64_t *min_out, uint64_t *max_out)
{
    QueryOutcome agg;
    if (query->isConstant()) {
        if (min_out)
            *min_out = query->value();
        if (max_out)
            *max_out = query->value();
        agg.result = CheckResult::Sat;
        return agg;
    }
    unsigned w = query->width();

    // Any sub-query giving up poisons the whole range: a bound derived
    // from an Unknown answer could exclude feasible values.
    bool unknown = false;
    auto feasible_le = [&](uint64_t bound) {
        QueryOutcome sub = mayBeTrue(
            constraints, builder_.ule(query, builder_.constant(bound, w)));
        accumulate(agg, sub);
        if (sub.isUnknown())
            unknown = true;
        return sub.yes();
    };
    auto feasible_ge = [&](uint64_t bound) {
        QueryOutcome sub = mayBeTrue(
            constraints, builder_.uge(query, builder_.constant(bound, w)));
        accumulate(agg, sub);
        if (sub.isUnknown())
            unknown = true;
        return sub.yes();
    };

    QueryOutcome base = mayBeTrue(constraints, builder_.trueExpr());
    accumulate(agg, base);
    if (!base.isSat()) {
        agg.result = base.result;
        return agg;
    }

    // Binary search for the minimum.
    uint64_t lo = 0, hi = lowMask(w);
    while (lo < hi && !unknown) {
        uint64_t mid = lo + (hi - lo) / 2;
        if (feasible_le(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    if (unknown) {
        agg.result = CheckResult::Unknown;
        return agg;
    }
    uint64_t min_v = lo;

    lo = min_v;
    hi = lowMask(w);
    while (lo < hi && !unknown) {
        uint64_t mid = lo + (hi - lo + 1) / 2;
        if (feasible_ge(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    if (unknown) {
        agg.result = CheckResult::Unknown;
        return agg;
    }
    if (min_out)
        *min_out = min_v;
    if (max_out)
        *max_out = lo;
    agg.result = CheckResult::Sat;
    return agg;
}

} // namespace s2e::solver
