#include "ladder.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <unordered_map>

#include "analysis/cfg.hh"
#include "core/lifecycle/serializer.hh"
#include "core/lifecycle/spill.hh"
#include "dbt/fastexec.hh"
#include "expr/absint/analyzer.hh"
#include "expr/simplify.hh"
#include "solver/bitblast.hh"
#include "solver/solver.hh"

using namespace s2e;
using expr::ExprRef;
using expr::Kind;

namespace perfbench {

namespace {

/** States sampled from the explored tree for the state-level rungs. */
constexpr size_t kMaxStates = 256;
/** Expression nodes rebuilt per pass of the expr rung. */
constexpr size_t kMaxDagNodes = 100000;
/** Distinct constraints fed to the simplifier rung. */
constexpr size_t kMaxSimplifyExprs = 2000;
/** Each timed rung repeats whole passes for at least this long. */
constexpr double kMinRungSeconds = 0.02;

/** Defeats dead-code elimination of results nobody reads. Atomic
 *  because the multi-threaded expr rung adds to it from every thread. */
std::atomic<uint64_t> g_sink{0};

void
sink(uint64_t v)
{
    g_sink.fetch_add(v, std::memory_order_relaxed);
}

/** Seconds per item: repeat `pass` over `items` items until at least
 *  kMinRungSeconds have elapsed. */
template <typename F>
double
perItem(size_t items, F &&pass)
{
    if (items == 0)
        return 0;
    Clock clock;
    size_t passes = 0;
    do {
        pass();
        ++passes;
    } while (clock.seconds() < kMinRungSeconds);
    return clock.seconds() / static_cast<double>(passes * items);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<const core::ExecutionState *>
sampleStates(core::Engine &engine)
{
    std::vector<const core::ExecutionState *> all;
    for (const auto &s : engine.allStates())
        if (!s->spilled)
            all.push_back(s.get());
    if (all.size() <= kMaxStates)
        return all;
    std::vector<const core::ExecutionState *> out;
    for (size_t i = 0; i < kMaxStates; ++i)
        out.push_back(all[i * all.size() / kMaxStates]);
    return out;
}

/** A DAG prefix in post-order (children first) with kid indices, so a
 *  rebuild needs no hash lookups of its own. */
struct FlatDag {
    std::vector<ExprRef> nodes;
    std::vector<std::array<int, 3>> kids;
};

FlatDag
flatten(const std::vector<ExprRef> &roots, size_t cap)
{
    FlatDag dag;
    std::unordered_map<ExprRef, int> index;
    std::vector<std::pair<ExprRef, unsigned>> stack;
    for (ExprRef root : roots) {
        if (index.count(root))
            continue;
        stack.push_back({root, 0});
        while (!stack.empty() && dag.nodes.size() < cap) {
            auto &[e, next] = stack.back();
            if (next < e->arity()) {
                ExprRef kid = e->kid(next++);
                if (!index.count(kid))
                    stack.push_back({kid, 0});
                continue;
            }
            if (!index.count(e)) {
                std::array<int, 3> k{-1, -1, -1};
                for (unsigned i = 0; i < e->arity(); ++i)
                    k[i] = index.at(e->kid(i));
                index.emplace(e, static_cast<int>(dag.nodes.size()));
                dag.nodes.push_back(e);
                dag.kids.push_back(k);
            }
            stack.pop_back();
        }
        if (dag.nodes.size() >= cap)
            break;
    }
    return dag;
}

/** Rebuild `dag` into `b` through the public builder API. Variables
 *  get `suffix` appended, so rebuilds with distinct suffixes share
 *  only constants. */
void
rebuild(expr::ExprBuilder &b, const FlatDag &dag, const std::string &suffix)
{
    std::vector<ExprRef> out(dag.nodes.size());
    for (size_t i = 0; i < dag.nodes.size(); ++i) {
        ExprRef e = dag.nodes[i];
        const auto &k = dag.kids[i];
        ExprRef a = k[0] >= 0 ? out[k[0]] : nullptr;
        ExprRef c = k[1] >= 0 ? out[k[1]] : nullptr;
        ExprRef d = k[2] >= 0 ? out[k[2]] : nullptr;
        ExprRef r = nullptr;
        switch (e->kind()) {
          case Kind::Constant: r = b.constant(e->value(), e->width()); break;
          case Kind::Variable: r = b.var(e->name() + suffix, e->width()); break;
          case Kind::Add: r = b.add(a, c); break;
          case Kind::Sub: r = b.sub(a, c); break;
          case Kind::Mul: r = b.mul(a, c); break;
          case Kind::UDiv: r = b.udiv(a, c); break;
          case Kind::SDiv: r = b.sdiv(a, c); break;
          case Kind::URem: r = b.urem(a, c); break;
          case Kind::SRem: r = b.srem(a, c); break;
          case Kind::And: r = b.bAnd(a, c); break;
          case Kind::Or: r = b.bOr(a, c); break;
          case Kind::Xor: r = b.bXor(a, c); break;
          case Kind::Not: r = b.bNot(a); break;
          case Kind::Neg: r = b.neg(a); break;
          case Kind::Shl: r = b.shl(a, c); break;
          case Kind::LShr: r = b.lshr(a, c); break;
          case Kind::AShr: r = b.ashr(a, c); break;
          case Kind::Concat: r = b.concat(a, c); break;
          case Kind::Extract: r = b.extract(a, e->aux(), e->width()); break;
          case Kind::ZExt: r = b.zext(a, e->width()); break;
          case Kind::SExt: r = b.sext(a, e->width()); break;
          case Kind::Eq: r = b.eq(a, c); break;
          case Kind::Ult: r = b.ult(a, c); break;
          case Kind::Ule: r = b.ule(a, c); break;
          case Kind::Slt: r = b.slt(a, c); break;
          case Kind::Sle: r = b.sle(a, c); break;
          case Kind::Ite: r = b.ite(a, c, d); break;
        }
        out[i] = r;
    }
    sink(out.size());
}

dbt::CodeReader
programReader(const isa::Program &prog)
{
    return [&prog](uint32_t addr, uint8_t *out) {
        for (const auto &sec : prog.sections)
            if (addr >= sec.addr && addr < sec.addr + sec.bytes.size()) {
                *out = sec.bytes[addr - sec.addr];
                return true;
            }
        return false;
    };
}

void
coreRungs(const std::vector<const core::ExecutionState *> &states,
          Trace &trace, Metrics &out,
          std::vector<std::unique_ptr<core::ExecutionState>> &clones)
{
    {
        Trace::Span span(trace, "ExecutionState::memoryFootprint");
        out["core.footprint_us_per_state"] =
            1e6 * perItem(states.size(), [&] {
                for (const auto *s : states)
                    sink(s->memoryFootprint());
            });
    }
    Trace::Span span(trace, "ExecutionState::clone");
    double secs = 0;
    size_t cloned = 0;
    while (!states.empty() && secs < kMinRungSeconds) {
        clones.clear(); // destruction stays outside the timed region
        Clock clock;
        for (const auto *s : states)
            clones.push_back(s->clone(s->id()));
        secs += clock.seconds();
        cloned += states.size();
    }
    out["core.clone_us_per_state"] = cloned ? 1e6 * secs / cloned : 0;
}

/** Returns the number of failed round trips. */
size_t
lifecycleRungs(core::Engine &engine,
               const std::vector<const core::ExecutionState *> &states,
               std::vector<std::unique_ptr<core::ExecutionState>> &clones,
               const std::string &work_dir, Trace &trace, Metrics &out)
{
    core::lifecycle::StateSerializer &ser = engine.stateSerializer();
    std::vector<std::vector<uint8_t>> images;
    size_t failures = 0;
    {
        Trace::Span span(trace, "StateSerializer::serialize");
        out["lifecycle.serialize_us_per_state"] =
            1e6 * perItem(states.size(), [&] {
                images.clear();
                for (const auto *s : states)
                    images.push_back(ser.serialize(*s));
            });
    }
    {
        // Restore into the clones: same checkpoint as the originals.
        Trace::Span span(trace, "StateSerializer::deserialize");
        out["lifecycle.deserialize_us_per_state"] =
            1e6 * perItem(images.size(), [&] {
                for (size_t i = 0; i < images.size(); ++i)
                    if (!ser.deserialize(images[i], *clones[i]))
                        failures++;
            });
    }
    Trace::Span span(trace, "SpillStore::write+read");
    core::lifecycle::SpillStore store(work_dir + "/ladder-spill");
    std::vector<uint8_t> back;
    out["lifecycle.spill_io_us_per_state"] =
        1e6 * perItem(images.size(), [&] {
            for (size_t i = 0; i < images.size(); ++i) {
                std::string key = "s" + std::to_string(i);
                if (!store.write(key, images[i]).ok ||
                    !store.read(key, &back).ok || back != images[i])
                    failures++;
                store.release(key);
            }
        });
    return failures;
}

/** Returns the number of constraint sets the SAT rungs found Unsat or
 *  could not decide (terminated paths are feasible by invariant). */
size_t
solverRungs(core::Engine &engine,
            const std::vector<std::vector<ExprRef>> &sets, Trace &trace,
            Metrics &out)
{
    {
        Trace::Span span(trace, "absint::Analyzer::analyze");
        out["absint.analyze_us_per_set"] = 1e6 * perItem(sets.size(), [&] {
            expr::absint::Analyzer analyzer;
            for (const auto &cs : sets)
                sink(analyzer.analyze(cs)->refined.size());
        });
    }
    size_t failures = 0;
    {
        Trace::Span span(trace, "BitBlaster::assertTrue+SatSolver::solve");
        double blast_s = 0, sat_s = 0;
        uint64_t gates = 0;
        size_t done = 0;
        while (!sets.empty() && blast_s + sat_s < kMinRungSeconds) {
            for (const auto &cs : sets) {
                sat::SatSolver sat;
                solver::BitBlaster blaster(sat);
                Clock clock;
                for (ExprRef c : cs)
                    blaster.assertTrue(c);
                double t1 = clock.seconds();
                sat::SatResult r = sat.solve();
                sat_s += clock.seconds() - t1;
                blast_s += t1;
                gates += blaster.numGates();
                if (done < sets.size() && r != sat::SatResult::Sat)
                    failures++;
                done++;
            }
        }
        out["solver.bitblast_us_per_set"] = done ? 1e6 * blast_s / done : 0;
        out["solver.sat_us_per_set"] = done ? 1e6 * sat_s / done : 0;
        out["solver.gates_per_set"] =
            done ? static_cast<double>(gates) / done : 0;
    }
    Trace::Span span(trace, "Solver::checkSat");
    double query_s = 0;
    size_t queries = 0;
    while (!sets.empty() && query_s < kMinRungSeconds) {
        for (const auto &cs : sets) {
            // A branch-shaped query: the prefix plus the last condition,
            // on a fresh solver so no model cache carries over.
            solver::Solver s(engine.builder());
            std::vector<ExprRef> prefix(cs.begin(), cs.end() - 1);
            Clock clock;
            solver::QueryOutcome q = s.checkSat(prefix, cs.back());
            query_s += clock.seconds();
            if (queries < sets.size() && !q.isSat())
                failures++;
            queries++;
        }
    }
    out["solver.query_us_per_set"] = queries ? 1e6 * query_s / queries : 0;
    return failures;
}

void
exprRungs(core::Engine &engine,
          const std::vector<const core::ExecutionState *> &states,
          const std::vector<std::vector<ExprRef>> &sets, Trace &trace,
          Metrics &out)
{
    std::vector<ExprRef> roots;
    for (const auto *s : states) {
        roots.insert(roots.end(), s->constraints.begin(),
                     s->constraints.end());
        for (const auto &v : s->cpu.regs)
            if (v.isSymbolic())
                roots.push_back(v.expr());
    }
    FlatDag dag = flatten(roots, kMaxDagNodes);
    double nodes = static_cast<double>(dag.nodes.size());
    {
        Trace::Span span(trace, "ExprBuilder (rebuild, 1 thread)");
        std::vector<double> passes;
        for (int i = 0; i < 3 && !dag.nodes.empty(); ++i) {
            expr::ExprBuilder fresh;
            Clock clock;
            rebuild(fresh, dag, "");
            passes.push_back(clock.seconds());
        }
        out["expr.build_ns_per_node"] =
            nodes > 0 ? 1e9 * median(passes) / nodes : 0;
    }
    {
        // Every thread rebuilds its own copy (distinct variable names)
        // into one shared builder: with no contention this matches the
        // 1-thread figure, a contended intern lock pushes it up.
        Trace::Span span(trace, "ExprBuilder (rebuild, nproc threads)");
        unsigned threads =
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
        std::vector<double> passes;
        for (int i = 0; i < 3 && !dag.nodes.empty(); ++i) {
            expr::ExprBuilder shared;
            Clock clock;
            std::vector<std::thread> pool;
            for (unsigned t = 0; t < threads; ++t)
                pool.emplace_back([&shared, &dag, t] {
                    rebuild(shared, dag, "#t" + std::to_string(t));
                });
            for (std::thread &th : pool)
                th.join();
            passes.push_back(clock.seconds());
        }
        out["expr.build_ns_per_node_mt"] =
            nodes > 0 ? 1e9 * median(passes) / nodes : 0;
    }
    Trace::Span span(trace, "Simplifier::simplify");
    std::vector<ExprRef> exprs;
    {
        std::unordered_map<ExprRef, bool> seen;
        for (const auto &cs : sets)
            for (ExprRef c : cs)
                if (exprs.size() < kMaxSimplifyExprs && !seen[c]) {
                    seen[c] = true;
                    exprs.push_back(c);
                }
    }
    out["expr.simplify_us_per_expr"] = 1e6 * perItem(exprs.size(), [&] {
        expr::Simplifier simplifier(engine.builder());
        for (ExprRef e : exprs)
            sink(simplifier.simplify(e)->width());
    });
}

void
dbtRungs(const isa::Program &program, uint64_t seed, Trace &trace,
         Metrics &out)
{
    {
        Trace::Span span(trace, "Translator::translate");
        uint32_t lo = ~0u, hi = 0;
        for (const auto &sec : program.sections) {
            lo = std::min(lo, sec.addr);
            hi = std::max(hi, static_cast<uint32_t>(sec.addr +
                                                    sec.bytes.size()));
        }
        analysis::StaticCfg cfg =
            analysis::recoverStaticCfg(program, {program.entry}, lo, hi);
        dbt::CodeReader reader = programReader(program);
        dbt::Translator translator;
        out["dbt.translate_us_per_tb"] =
            1e6 * perItem(cfg.blocks.size(), [&] {
                for (const auto &[pc, block] : cfg.blocks)
                    sink(translator.translate(pc, reader)->ops.size());
            });
    }
    vm::MachineConfig machine =
        smallMachine(isa::assemble(symAluSource(seed, false)));
    {
        Trace::Span span(trace, "dbt::fastRun");
        std::vector<double> rates;
        for (int i = 0; i < 3; ++i) {
            dbt::FastMachine fast(machine.ramSize);
            fast.load(machine.program);
            Clock clock;
            dbt::FastRunResult r = dbt::fastRun(fast, ~0ULL);
            rates.push_back(static_cast<double>(r.instructions) /
                            clock.seconds() / 1e6);
        }
        out["dbt.vanilla_minstr_per_s"] = median(rates);
    }
    Trace::Span span(trace, "Engine::run (concrete sym_alu)");
    core::Engine engine(machine, core::EngineConfig{});
    Clock clock;
    core::RunResult r = engine.run();
    out["core.concrete_minstr_per_s"] =
        static_cast<double>(r.totalInstructions) / clock.seconds() / 1e6;
}

} // namespace

void
runLadder(Session &session, uint64_t seed, const std::string &work_dir,
          Trace &trace, Metrics &out)
{
    Trace::Span ladder(trace, "ladder");
    core::Engine &engine = session.engine();
    std::vector<const core::ExecutionState *> states = sampleStates(engine);
    std::vector<std::vector<ExprRef>> sets;
    for (const auto *s : states)
        if (!s->constraints.empty())
            sets.push_back(s->constraints);

    std::vector<std::unique_ptr<core::ExecutionState>> clones;
    coreRungs(states, trace, out, clones);
    size_t failures =
        lifecycleRungs(engine, states, clones, work_dir, trace, out);
    failures += solverRungs(engine, sets, trace, out);
    exprRungs(engine, states, sets, trace, out);
    dbtRungs(session.program(), seed, trace, out);
    out["ladder.failures"] = static_cast<double>(failures);
}

} // namespace perfbench
