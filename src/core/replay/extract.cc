#include "core/replay/extract.hh"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <unordered_set>

#include "core/state.hh"
#include "expr/builder.hh"
#include "expr/eval.hh"
#include "expr/vars.hh"
#include "solver/solver.hh"
#include "support/logging.hh"

namespace s2e::core::replay {

namespace {

/** Bit width of the variables a site kind creates. */
unsigned
varWidth(SiteKind kind)
{
    return kind == SiteKind::SymMem ? 8 : 32;
}

/** Root of constraint `i` in a disjoint-set forest (path halving). */
size_t
findRoot(std::vector<size_t> &parent, size_t i)
{
    while (parent[i] != i) {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

solver::SolverOptions
witnessOptions(solver::SolverOptions opts)
{
    // No model cache (answers would depend on query history), no
    // incremental context reuse.
    opts.useModelCache = false;
    opts.useIncremental = false;
    return opts;
}

} // namespace

size_t
ComponentModels::KeyHash::operator()(const Key &key) const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (ExprRef e : key)
        h = (h ^ e->hash()) * 0x100000001b3ULL;
    return static_cast<size_t>(h);
}

bool
ComponentModels::lookup(const Key &key, expr::Assignment &model) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_.find(key);
    if (it == table_.end())
        return false;
    for (const auto &[id, value] : it->second)
        model.setById(id, value);
    return true;
}

bool
ComponentModels::insert(const Key &key, const expr::Assignment &model)
{
    Model sorted(model.values().begin(), model.values().end());
    std::sort(sorted.begin(), sorted.end());
    std::lock_guard<std::mutex> lock(mu_);
    if (table_.size() >= kMaxEntries && !table_.count(key))
        table_.clear();
    // A concurrent fill of the same key stored the same model.
    return table_.emplace(key, std::move(sorted)).second;
}

void
ComponentModels::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    table_.clear();
}

size_t
ComponentModels::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return table_.size();
}

WitnessSolver::WitnessSolver(expr::ExprBuilder &builder,
                             const solver::SolverOptions &baseOptions,
                             obs::PhaseProfiler *profiler)
    : solver(builder, witnessOptions(baseOptions))
{
    solver.setProfiler(profiler);
}

ExtractResult
extractWitness(const ExecutionState &state, expr::ExprBuilder &builder,
               WitnessSolver &ws, ComponentModels &models)
{
    ExtractResult out;

    // Every variable the path created, in creation order, from the
    // nondeterminism log (name -> width; names are unique).
    std::map<std::string, unsigned> created; // sorted by name
    for (const auto &ev : state.replayLog.events) {
        for (const auto &name : ev.vars)
            created.emplace(name, varWidth(ev.kind));
    }
    std::unordered_set<uint64_t> created_ids;
    for (const auto &[name, width] : created)
        created_ids.insert(builder.var(name, width)->varId());

    // Split the raw path constraints into independent components:
    // union-find over shared variables. Any constraint variable
    // outside the creation record means a nondeterminism site went
    // unrecorded — refuse to emit a witness that could not drive a
    // faithful replay.
    const std::vector<ExprRef> &cs = state.constraints;
    std::vector<size_t> parent(cs.size());
    std::iota(parent.begin(), parent.end(), size_t{0});
    std::unordered_map<uint64_t, size_t> owner; // var id -> a constraint
    expr::VarSets &varSets = ws.solver.varSets();
    for (size_t i = 0; i < cs.size(); ++i) {
        for (uint64_t id : varSets.of(cs[i])) {
            if (!created_ids.count(id)) {
                out.error = "constraint variable '" +
                            builder.varById(id)->name() +
                            "' missing from nondeterminism log";
                return out;
            }
            auto [it, fresh] = owner.emplace(id, i);
            if (!fresh)
                parent[findRoot(parent, i)] = findRoot(parent, it->second);
        }
    }

    // Components in order of their first constraint; constraints keep
    // path order inside a component.
    std::vector<ComponentModels::Key> components;
    std::vector<size_t> slot(cs.size(), SIZE_MAX);
    for (size_t i = 0; i < cs.size(); ++i) {
        size_t root = findRoot(parent, i);
        if (slot[root] == SIZE_MAX) {
            slot[root] = components.size();
            components.emplace_back();
        }
        components[slot[root]].push_back(cs[i]);
    }

    // The path model is the union of its components' models.
    expr::Assignment model;
    for (const ComponentModels::Key &component : components) {
        if (models.lookup(component, model)) {
            out.componentHits++;
            continue;
        }
        expr::Assignment part;
        auto q = ws.solver.getInitialValues(component, &part);
        if (!q.isSat()) {
            out.componentSolves++;
            out.error = q.isUnsat()
                            ? "path constraints unsatisfiable"
                            : "solver gave up on model extraction";
            return out;
        }
        if (models.insert(component, part))
            out.componentSolves++;
        else
            out.componentHits++;
        for (const auto &[id, value] : part.values())
            model.setById(id, value);
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
        auto q = ws.solver.getValue(pinned, var, &v);
        if (!q.isSat()) {
            out.error = "hole repair failed for variable " + name;
            return out;
        }
        full.setById(var->varId(), v);
        pinned.push_back(builder.eq(var, builder.constant(v, width)));
    }

    // Semantic validation: the completed assignment must satisfy the
    // entire path — this is what rules out default-zero holes. One
    // memo serves the whole path.
    expr::Evaluator &eval = ws.validator;
    eval.reset(full);
    for (const auto &c : state.constraints) {
        if (!eval.evaluateBool(c)) {
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
