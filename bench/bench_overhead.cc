/**
 * @file
 * §6.2 reproduction: runtime overhead of the platform vs "vanilla"
 * execution. The paper reports ~6x overhead in concrete mode (checks
 * for symbolic memory on every access) and ~78x in symbolic mode
 * (expression interpretation + constraint solving), both relative to
 * vanilla QEMU.
 *
 * Here the vanilla baseline is the raw concrete TB interpreter
 * (dbt::fastRun), the concrete-mode run is the full engine with no
 * symbolic data, and the symbolic-mode run executes the same loop
 * with its working set symbolic (branch-free, so the slowdown is
 * expression construction, not forking).
 *
 * Also the harness for two observability checks: the symbolic run is
 * captured as a RunReport (BENCH_overhead.json) whose phase fractions
 * must sum to <= 1.0 of wall time, and a profiler-off concrete run
 * measures the cost of the profiling spans themselves (the
 * S2E_OBS_DEFAULT_OFF zero-overhead check).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/cfg.hh"
#include "core/engine.hh"
#include "core/state.hh"
#include "dbt/fastexec.hh"
#include "obs/heartbeat.hh"
#include "obs/report.hh"
#include "solver/context.hh"
#include "vm/devices.hh"

using namespace s2e;

namespace {

std::string
workloadSource(bool make_symbolic)
{
    // Branch-free ALU mix over r1..r4; only the loop counter (always
    // concrete) controls branches until the tail. r7 keeps a pristine
    // copy of r1 (the loop mangles r1 into a deep expression), so the
    // two-branch tail issues cheap solver queries in symbolic mode —
    // exercising the per-path incremental context on this workload —
    // and runs concretely (no queries) in the baseline.
    std::string inject = make_symbolic ? R"(
        s2e_symreg r1
        s2e_symreg r2
)"
                                       : "";
    return R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 0x1234
        movi r2, 0x9876
)" + inject + R"(
        movi r7, 0
        add r7, r1            ; pristine copy of r1
        movi r10, 60000       ; iterations
    loop:
        add r1, r2
        xor r2, r1
        shli r1, 3
        shri r1, 1
        mul r2, r1
        or r1, r2
        and r2, r1
        sub r1, r2
        subi r10, 1
        cmpi r10, 0
        jne loop
        testi r7, 1
        jeq t1
        ori r6, 1
    t1: testi r7, 2
        jeq t2
        ori r6, 2
    t2: testi r7, 1       ; re-tests: statically decided on every path
        jeq t3
        ori r6, 16
    t3: testi r7, 2
        jeq t4
        ori r6, 32
    t4: hlt
    )";
}

double
instrPerSecondVanilla()
{
    dbt::FastMachine machine(64 * 1024);
    machine.load(isa::assemble(workloadSource(false)));
    auto start = std::chrono::steady_clock::now();
    dbt::FastRunResult r = dbt::fastRun(machine, ~0ULL);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return static_cast<double>(r.instructions) / secs;
}

/** Engine-mode measurement plus the solver-resilience counters the
 *  run accumulated (visibility into the resilience layer's cost). */
struct EngineRun {
    double instrPerSecond = 0;
    uint64_t solverQueries = 0;
    uint64_t solverUnknowns = 0;
    uint64_t solverRetries = 0;
    uint64_t solverTimeouts = 0;
    uint64_t maxQueryMicros = 0;
    uint64_t ctxReuses = 0;    ///< per-path incremental context reuses
    uint64_t gatesSaved = 0;   ///< bit-blast gates skipped via guards
    uint64_t ctxEvictions = 0; ///< contexts dropped at the high-water
    size_t solverFailures = 0;
    size_t degradedStates = 0;
    size_t heartbeats = 0;
    uint64_t uopsExecuted = 0; ///< micro-ops interpreted (post-opt)
    uint64_t uopsPreOpt = 0;   ///< same blocks, as originally emitted
};

EngineRun
runEngine(bool symbolic, bool profile, obs::RunReport *report = nullptr)
{
    vm::MachineConfig m;
    m.ramSize = 64 * 1024;
    m.program = isa::assemble(workloadSource(symbolic));
    m.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
    };
    core::EngineConfig config;
    config.profileExecution = profile;
    core::Engine engine(m, config);
    obs::Heartbeat::Config hb_config;
    hb_config.everyBlocks = 8192;
    hb_config.log = false; // sampled for the report, not printed
    obs::Heartbeat heartbeat(engine, hb_config);
    auto start = std::chrono::steady_clock::now();
    core::RunResult r = engine.run();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    EngineRun out;
    out.instrPerSecond = static_cast<double>(r.totalInstructions) / secs;
    Stats &ss = engine.solver().stats();
    out.solverQueries = ss.get("solver.queries");
    out.solverUnknowns = ss.get("solver.unknown_results");
    out.solverRetries = ss.get("solver.retries");
    out.solverTimeouts = ss.get("solver.timeouts");
    out.maxQueryMicros = ss.get("solver.max_query_micros");
    out.ctxReuses = ss.get("solver.ctx_reuses");
    out.gatesSaved = ss.get("solver.gates_saved");
    out.ctxEvictions = ss.get("solver.ctx_evictions");
    out.solverFailures = r.solverFailures;
    out.degradedStates = r.degradedStates;
    out.heartbeats = heartbeat.records().size();
    out.uopsExecuted = engine.stats().get("engine.uops_executed");
    out.uopsPreOpt = engine.stats().get("engine.uops_pre_opt");
    if (report)
        report->captureEngine(engine, r);
    return out;
}

/** Fork-heavy workload for the serial-vs-parallel comparison: six
 *  symbolic branch levels (64 paths), each path then grinding a
 *  private ALU loop so workers have real work to steal. */
std::string
forkWorkloadSource()
{
    return R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r5, 0
        testi r1, 1
        jeq b1
        ori r5, 1
    b1: testi r1, 2
        jeq b2
        ori r5, 2
    b2: testi r1, 4
        jeq b3
        ori r5, 4
    b3: testi r1, 8
        jeq b4
        ori r5, 8
    b4: testi r1, 16
        jeq b5
        ori r5, 16
    b5: testi r1, 32
        jeq work
        ori r5, 32
    work:
        movi r10, 2000
    loop:
        add r6, r5
        xor r6, r10
        muli r6, 3
        subi r10, 1
        cmpi r10, 0
        jne loop
        hlt
    )";
}

/** One fork-heavy run; maxResidentBytes > 0 engages the lifecycle
 *  memory governor (spill-to-disk) on the same workload. */
core::RunResult
runForkWorkload(unsigned workers, uint64_t max_resident_bytes = 0)
{
    vm::MachineConfig m;
    m.ramSize = 64 * 1024;
    m.program = isa::assemble(forkWorkloadSource());
    core::EngineConfig config;
    config.numWorkers = workers;
    config.maxResidentBytes = max_resident_bytes;
    core::Engine engine(m, config);
    return engine.run();
}

/** Resident cap of three empty-state footprints: guaranteed to trip
 *  the governor once a handful of fork-workload states are live. */
uint64_t
forkWorkloadResidentCap()
{
    vm::DeviceSet devices;
    core::ExecutionState probe(64 * 1024, devices);
    return 3 * probe.memoryFootprint();
}

/** Incremental-vs-fresh solver comparison: one path's worth of
 *  mul-heavy constraint history and a stream of checkBranch/getValue
 *  queries against it. With useIncremental the bound path context
 *  bit-blasts the ladder once and replays it via activation-literal
 *  assumptions; the fresh oracle re-blasts everything per query. */
struct SolverBench {
    double queriesPerSecond = 0;
    uint64_t ctxReuses = 0;
    uint64_t gatesSaved = 0;
    uint64_t ctxEvictions = 0;
    std::string answers; ///< outcome-kind digest for cross-checking
};

SolverBench
runSolverBench(bool incremental)
{
    expr::ExprBuilder b;
    solver::SolverOptions opts;
    opts.useModelCache = false; // measure the SAT layer, not the cache
    opts.useIncremental = incremental;
    solver::Solver s(b, opts);
    std::shared_ptr<solver::IncrementalContext> slot;
    s.bindPathContext(&slot);

    expr::ExprRef x = b.var("bx", 32);
    expr::ExprRef y = b.var("by", 32);
    std::vector<expr::ExprRef> cs;
    cs.push_back(b.ult(x, b.constant(1u << 20, 32)));
    cs.push_back(b.ult(y, b.constant(1u << 20, 32)));
    for (uint32_t i = 0; i < 16; ++i)
        cs.push_back(b.ult(b.add(b.mul(x, b.constant(3 + i, 32)),
                                 b.mul(y, b.constant(5 + i, 32))),
                           b.constant(0x40000000u + (i << 16), 32)));

    SolverBench out;
    uint64_t queries = 0;
    auto start = std::chrono::steady_clock::now();
    for (uint32_t k = 0; k < 40; ++k) {
        auto branch =
            s.checkBranch(cs, b.ult(x, b.constant(100 + k * 8, 32)));
        out.answers += branch.trueSide.isSat() ? 'T' : 't';
        out.answers += branch.falseSide.isSat() ? 'F' : 'f';
        uint64_t v = 0;
        auto gv = s.getValue(cs, b.add(x, y), &v);
        out.answers += gv.isSat() ? 'V' : 'v';
        queries += 3;
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    s.bindPathContext(nullptr);
    out.queriesPerSecond =
        secs > 0 ? static_cast<double>(queries) / secs : 0.0;
    out.ctxReuses = s.stats().get("solver.ctx_reuses");
    out.gatesSaved = s.stats().get("solver.gates_saved");
    out.ctxEvictions = s.stats().get("solver.ctx_evictions");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned workers = 4;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
            workers = static_cast<unsigned>(std::atoi(argv[++i]));
    }

    std::setbuf(stdout, nullptr);
    std::printf("=== §6.2: runtime overhead vs vanilla execution ===\n\n");

    double vanilla = instrPerSecondVanilla();
    EngineRun concrete_run = runEngine(false, true);
    EngineRun concrete_noprof = runEngine(false, false);
    obs::RunReport report("bench_overhead");
    EngineRun symbolic_run = runEngine(true, true, &report);
    double concrete = concrete_run.instrPerSecond;
    double symbolic = symbolic_run.instrPerSecond;

    std::printf("%-28s %14.0f instr/s\n", "vanilla TB interpreter",
                vanilla);
    std::printf("%-28s %14.0f instr/s  (%.1fx overhead; paper ~6x)\n",
                "engine, concrete mode", concrete, vanilla / concrete);
    std::printf("%-28s %14.0f instr/s  (%.1fx overhead; paper ~78x)\n",
                "engine, symbolic mode", symbolic, vanilla / symbolic);

    std::printf("\n--- solver resilience counters (symbolic run) ---\n");
    std::printf("%-28s %14llu\n", "solver.queries",
                static_cast<unsigned long long>(symbolic_run.solverQueries));
    std::printf("%-28s %14llu\n", "solver.unknown_results",
                static_cast<unsigned long long>(
                    symbolic_run.solverUnknowns));
    std::printf("%-28s %14llu\n", "solver.retries",
                static_cast<unsigned long long>(symbolic_run.solverRetries));
    std::printf("%-28s %14llu\n", "solver.timeouts",
                static_cast<unsigned long long>(
                    symbolic_run.solverTimeouts));
    std::printf("%-28s %14llu\n", "solver.max_query_micros",
                static_cast<unsigned long long>(
                    symbolic_run.maxQueryMicros));
    std::printf("%-28s %14zu\n", "run.solverFailures",
                symbolic_run.solverFailures);
    std::printf("%-28s %14zu\n", "run.degradedStates",
                symbolic_run.degradedStates);
    std::printf("%-28s %14llu\n", "solver.ctx_reuses",
                static_cast<unsigned long long>(symbolic_run.ctxReuses));
    std::printf("%-28s %14llu\n", "solver.gates_saved",
                static_cast<unsigned long long>(symbolic_run.gatesSaved));
    std::printf("%-28s %14llu\n", "solver.ctx_evictions",
                static_cast<unsigned long long>(
                    symbolic_run.ctxEvictions));

    std::printf("\n--- phase breakdown (symbolic run, Fig 9) ---\n");
    for (const auto &row : report.phases())
        std::printf("%-28s %13.1f%%  (%llu spans)\n", row.name.c_str(),
                    row.fraction * 100.0,
                    static_cast<unsigned long long>(row.spans));
    double fraction_sum = report.phaseFractionSum();
    std::printf("%-28s %13.1f%%\n", "sum of fractions",
                fraction_sum * 100.0);
    std::printf("%zu heartbeats sampled during the symbolic run\n",
                symbolic_run.heartbeats);

    // Cost of the profiling spans themselves, measured on the concrete
    // run (concrete mode has the most spans per unit of work). Noise on
    // short runs is real, so this is a reported metric plus a lenient
    // shape line, not a hard gate.
    double profiler_overhead =
        concrete_noprof.instrPerSecond > 0
            ? concrete_noprof.instrPerSecond / concrete - 1.0
            : 0.0;
    std::printf("\nprofiler on->off speedup on the concrete run: %+.1f%%\n",
                profiler_overhead * 100.0);

    report.setMetric("vanilla_instr_per_sec", vanilla);
    report.setMetric("concrete_instr_per_sec", concrete);
    report.setMetric("symbolic_instr_per_sec", symbolic);
    report.setMetric("concrete_overhead_x", vanilla / concrete);
    report.setMetric("symbolic_overhead_x", vanilla / symbolic);
    report.setMetric("profiler_overhead_fraction", profiler_overhead);
    report.setMetric("heartbeats", double(symbolic_run.heartbeats));

    // TB optimizer effect: every executed block counts both its
    // interpreted (post-optimization) ops and the ops the translator
    // originally emitted. The per-TB breakdown retranslates the
    // workload's static blocks so the JSON shows where the dead-flag
    // harvest comes from.
    double uop_reduction =
        concrete_run.uopsPreOpt > 0
            ? 1.0 - static_cast<double>(concrete_run.uopsExecuted) /
                        static_cast<double>(concrete_run.uopsPreOpt)
            : 0.0;
    std::printf("\n--- TB optimizer (concrete run) ---\n");
    std::printf("%-28s %14llu\n", "uops executed (optimized)",
                static_cast<unsigned long long>(concrete_run.uopsExecuted));
    std::printf("%-28s %14llu\n", "uops as emitted (pre-opt)",
                static_cast<unsigned long long>(concrete_run.uopsPreOpt));
    std::printf("%-28s %13.1f%%\n", "micro-op reduction",
                uop_reduction * 100.0);
    report.setMetric("uops_executed_post_opt",
                     double(concrete_run.uopsExecuted));
    report.setMetric("uops_executed_pre_opt",
                     double(concrete_run.uopsPreOpt));
    report.setMetric("uop_reduction_fraction", uop_reduction);
    {
        isa::Program prog = isa::assemble(workloadSource(false));
        analysis::StaticCfg cfg =
            analysis::recoverStaticCfg(prog, {prog.entry}, 0, 64 * 1024);
        dbt::CodeReader reader = [&prog](uint32_t addr, uint8_t *out) {
            for (const auto &sec : prog.sections)
                if (addr >= sec.addr &&
                    addr < sec.addr + sec.bytes.size()) {
                    *out = sec.bytes[addr - sec.addr];
                    return true;
                }
            return false;
        };
        dbt::TranslatorConfig tc;
        tc.optimize = true;
        tc.verify = true;
        dbt::Translator translator(tc);
        std::vector<double> pcs, pre, post;
        for (const auto &[pc, blk] : cfg.blocks) {
            auto tb = translator.translate(pc, reader);
            pcs.push_back(double(pc));
            pre.push_back(double(tb->origOpCount));
            post.push_back(double(tb->ops.size()));
        }
        report.setSeries("tb_pc", std::move(pcs));
        report.setSeries("tb_uops_pre_opt", std::move(pre));
        report.setSeries("tb_uops_post_opt", std::move(post));
    }

    // Serial vs parallel exploration on a fork-heavy workload. On a
    // single-core host the speedup reflects scheduling overhead only;
    // the differential suite (tests/test_parallel.cc) proves the path
    // sets are identical regardless.
    std::printf("\n--- parallel exploration (fork-heavy, %u workers) "
                "---\n",
                workers);
    core::RunResult serial_run = runForkWorkload(1);
    core::RunResult parallel_run = runForkWorkload(workers);
    double serial_secs = serial_run.wallSeconds;
    double parallel_secs = parallel_run.wallSeconds;
    size_t serial_paths = serial_run.completed;
    size_t parallel_paths = parallel_run.completed;
    double speedup =
        parallel_secs > 0 ? serial_secs / parallel_secs : 0.0;
    std::printf("%-28s %14.3f s  (%zu paths)\n", "serial (1 worker)",
                serial_secs, serial_paths);
    std::printf("%-28s %14.3f s  (%zu paths)\n", "parallel", parallel_secs,
                parallel_paths);
    std::printf("%-28s %14.2fx\n", "speedup", speedup);
    report.setMetric("parallel_workers", double(workers));
    report.setMetric("serial_wall_seconds", serial_secs);
    report.setMetric("parallel_wall_seconds", parallel_secs);
    report.setMetric("parallel_speedup_x", speedup);
    report.setMetric("parallel_paths_match",
                     serial_paths == parallel_paths ? 1.0 : 0.0);

    // State-lifecycle overhead: the same fork workload forced through
    // constant spill/restore cycles by a resident cap of three state
    // footprints. Path results are identical (the differential suite,
    // tests/test_lifecycle.cc, proves byte-equality); here the point
    // is the wall-time cost and counter visibility of the governor.
    std::printf("\n--- spill-to-disk memory governor (capped run) ---\n");
    uint64_t resident_cap = forkWorkloadResidentCap();
    core::RunResult capped_run = runForkWorkload(workers, resident_cap);
    double spill_overhead =
        parallel_secs > 0 ? capped_run.wallSeconds / parallel_secs : 0.0;
    std::printf("%-28s %14llu B\n", "resident cap (3 footprints)",
                static_cast<unsigned long long>(resident_cap));
    std::printf("%-28s %14.3f s  (%zu paths)\n", "capped run",
                capped_run.wallSeconds, capped_run.completed);
    std::printf("%-28s %14llu\n", "states spilled",
                static_cast<unsigned long long>(capped_run.statesSpilled));
    std::printf("%-28s %14llu\n", "states restored",
                static_cast<unsigned long long>(
                    capped_run.statesRestored));
    std::printf("%-28s %14llu B\n", "spill bytes",
                static_cast<unsigned long long>(capped_run.spillBytes));
    std::printf("%-28s %14llu\n", "spill retries",
                static_cast<unsigned long long>(capped_run.spillRetries));
    std::printf("%-28s %14llu states\n", "resident peak",
                static_cast<unsigned long long>(
                    capped_run.residentStatesPeak));
    std::printf("%-28s %14.2fx of uncapped wall time\n", "spill overhead",
                spill_overhead);
    report.setMetric("resident_cap_bytes", double(resident_cap));
    report.setMetric("capped_wall_seconds", capped_run.wallSeconds);
    report.setMetric("capped_paths_match",
                     capped_run.completed == parallel_paths ? 1.0 : 0.0);
    report.setMetric("states_spilled", double(capped_run.statesSpilled));
    report.setMetric("states_restored",
                     double(capped_run.statesRestored));
    report.setMetric("spill_bytes", double(capped_run.spillBytes));
    report.setMetric("spill_retries", double(capped_run.spillRetries));
    report.setMetric("resident_states_peak",
                     double(capped_run.residentStatesPeak));
    report.setMetric("spill_overhead_x", spill_overhead);

    // Incremental per-path contexts vs the fresh-per-query oracle on
    // the same constraint history and query stream. Answers must be
    // identical (the models behind them may differ; only outcome
    // kinds are compared) and the persistent context should win on
    // throughput by skipping the per-query re-blast.
    std::printf("\n--- incremental solver contexts (microbench) ---\n");
    SolverBench fresh_bench = runSolverBench(false);
    SolverBench inc_bench = runSolverBench(true);
    double throughput_x =
        fresh_bench.queriesPerSecond > 0
            ? inc_bench.queriesPerSecond / fresh_bench.queriesPerSecond
            : 0.0;
    bool answers_match = fresh_bench.answers == inc_bench.answers;
    std::printf("%-28s %14.0f queries/s\n", "fresh solver per query",
                fresh_bench.queriesPerSecond);
    std::printf("%-28s %14.0f queries/s\n", "incremental context",
                inc_bench.queriesPerSecond);
    std::printf("%-28s %14.2fx\n", "query throughput ratio",
                throughput_x);
    std::printf("%-28s %14llu\n", "ctx reuses (microbench)",
                static_cast<unsigned long long>(inc_bench.ctxReuses));
    std::printf("%-28s %14llu\n", "gates saved (microbench)",
                static_cast<unsigned long long>(inc_bench.gatesSaved));
    report.setMetric("fresh_queries_per_sec",
                     fresh_bench.queriesPerSecond);
    report.setMetric("incremental_queries_per_sec",
                     inc_bench.queriesPerSecond);
    report.setMetric("incremental_query_throughput_x", throughput_x);
    report.setMetric("solver_ctx_reuses", double(inc_bench.ctxReuses));
    report.setMetric("solver_gates_saved",
                     double(inc_bench.gatesSaved));
    report.setMetric("solver_ctx_evictions",
                     double(inc_bench.ctxEvictions));
    report.setMetric("incremental_answers_match",
                     answers_match ? 1.0 : 0.0);

    report.writeBenchFile();

    std::printf("\nShape check vs paper: symbolic >> concrete > vanilla "
                "overhead ordering: %s\n",
                (vanilla > concrete && concrete > symbolic) ? "YES"
                                                            : "NO");
    std::printf("Shape check vs paper: symbolic mode at least 5x "
                "slower than concrete mode: %s\n",
                concrete > 5 * symbolic ? "YES" : "NO");
    std::printf("Observability check: phase fractions sum <= 1.0: %s\n",
                fraction_sum <= 1.0 ? "YES" : "NO");
    std::printf("Observability check: disabled profiler within noise "
                "(<5%% cost): %s\n",
                profiler_overhead < 0.05 ? "YES" : "NO");
    std::printf("Optimizer check: >5%% fewer micro-ops executed: %s\n",
                uop_reduction > 0.05 ? "YES" : "NO");
    std::printf("Incremental check: answers match the fresh oracle: "
                "%s\n",
                answers_match ? "YES" : "NO");
    std::printf("Incremental check: query throughput ratio >= 1.0: "
                "%s\n",
                throughput_x >= 1.0 ? "YES" : "NO");
    std::printf("Incremental check: engine run reused contexts "
                "(solver.ctx_reuses > 0): %s\n",
                symbolic_run.ctxReuses > 0 ? "YES" : "NO");
    std::printf("Lifecycle check: capped run spilled and restored "
                "states: %s\n",
                capped_run.statesSpilled > 0 &&
                        capped_run.statesRestored > 0
                    ? "YES"
                    : "NO");
    std::printf("Lifecycle check: capped path count matches uncapped: "
                "%s\n",
                capped_run.completed == parallel_paths ? "YES" : "NO");
    return 0;
}
