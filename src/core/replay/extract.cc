#include "core/replay/extract.hh"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "core/state.hh"
#include "expr/builder.hh"
#include "expr/eval.hh"
#include "solver/solver.hh"
#include "support/logging.hh"

namespace s2e::core::replay {

namespace {

/** Collect the variables appearing in an expression. */
void
collectVars(ExprRef e, std::vector<ExprRef> &vars,
            std::unordered_set<ExprRef> &seen)
{
    if (!seen.insert(e).second)
        return;
    if (e->isVariable()) {
        vars.push_back(e);
        return;
    }
    for (unsigned i = 0; i < e->arity(); ++i)
        collectVars(e->kid(i), vars, seen);
}

/** Bit width of the variables a site kind creates. */
unsigned
varWidth(SiteKind kind)
{
    return kind == SiteKind::SymMem ? 8 : 32;
}

} // namespace

ExtractResult
extractWitness(const ExecutionState &state, expr::ExprBuilder &builder,
               const solver::SolverOptions &baseOptions,
               obs::PhaseProfiler *profiler)
{
    ExtractResult out;

    // Every variable the path created, in creation order, from the
    // nondeterminism log (name -> width; names are unique).
    std::map<std::string, unsigned> created; // sorted by name
    for (const auto &ev : state.replayLog.events) {
        for (const auto &name : ev.vars)
            created.emplace(name, varWidth(ev.kind));
    }

    // Any constraint variable outside the creation record means a
    // nondeterminism site went unrecorded — refuse to emit a witness
    // that could not drive a faithful replay.
    std::unordered_set<uint64_t> created_ids;
    for (const auto &[name, width] : created)
        created_ids.insert(builder.var(name, width)->varId());
    {
        std::vector<ExprRef> used;
        std::unordered_set<ExprRef> seen;
        for (const auto &c : state.constraints)
            collectVars(c, used, seen);
        for (const ExprRef &v : used) {
            if (!created_ids.count(v->varId())) {
                out.error = "constraint variable '" + v->name() +
                            "' missing from nondeterminism log";
                return out;
            }
        }
    }

    // Fresh deterministic solver: no model cache (answers would
    // depend on query history), no incremental context reuse.
    solver::SolverOptions opts = baseOptions;
    opts.useModelCache = false;
    opts.useIncremental = false;
    solver::Solver solver(builder, opts);
    solver.setProfiler(profiler);

    expr::Assignment model;
    if (!state.constraints.empty()) {
        auto q = solver.getInitialValues(state.constraints, &model);
        if (!q.isSat()) {
            out.error = q.isUnsat()
                            ? "path constraints unsatisfiable"
                            : "solver gave up on model extraction";
            return out;
        }
    }

    // Complete the model over every created variable. Holes (inputs
    // the program never constrained, or variables the bit-blaster
    // simplified away) are pinned one by one under the accumulated
    // assignment so the completion stays globally consistent.
    std::vector<ExprRef> pinned = state.constraints;
    expr::Assignment full;
    for (const auto &[name, width] : created) {
        ExprRef var = builder.var(name, width);
        if (model.has(var->varId())) {
            uint64_t v = model.lookup(var->varId());
            full.setById(var->varId(), v);
            pinned.push_back(builder.eq(var, builder.constant(v, width)));
            continue;
        }
        uint64_t v = 0;
        auto q = solver.getValue(pinned, var, &v);
        if (!q.isSat()) {
            out.error = "hole repair failed for variable " + name;
            return out;
        }
        full.setById(var->varId(), v);
        pinned.push_back(builder.eq(var, builder.constant(v, width)));
    }

    // Semantic validation: the completed assignment must satisfy the
    // entire path — this is what rules out default-zero holes.
    for (const auto &c : state.constraints) {
        if (!expr::evaluateBool(c, full)) {
            out.error = "completed assignment violates a path constraint";
            return out;
        }
    }

    auto w = std::make_shared<Witness>();
    w->pathId = state.pathId();
    w->terminalStatus = static_cast<uint8_t>(state.status);
    w->terminalPc = state.cpu.pc;
    w->exitCode = state.exitCode;
    w->terminalInstr = state.instrCount;
    w->terminalBlocks = state.blockCount;
    w->events = state.replayLog.events;
    w->inputs.reserve(created.size());
    for (const auto &[name, width] : created) {
        WitnessInput in;
        in.name = name;
        in.width = static_cast<uint8_t>(width);
        in.value = full.lookup(builder.var(name, width)->varId());
        w->inputs.push_back(std::move(in));
    }
    out.witness = std::move(w);
    return out;
}

} // namespace s2e::core::replay
