/**
 * @file
 * Bounded-memory state-lifecycle bench: a 4096-path fork storm run
 * under a resident cap of three state footprints, so the memory
 * governor must continuously spill cold states to disk and restore
 * them on schedule, with an s2e_merge_point prologue exercising ITE
 * state merging in the same run.
 *
 * Sections:
 *
 *   - all-resident breadth-first oracle vs the capped parallel run:
 *     same completed-path count, wall time, and the resident-state
 *     peak that proves the cap actually bounds the pool (thousands of
 *     paths, a few dozen states ever resident at once);
 *   - spill-I/O fault injection: transient write faults must be
 *     absorbed by the retry loop (zero failures, exact path count),
 *     persistent restore faults must degrade into clean
 *     StateStatus::SpillFailure kills with exact terminal accounting
 *     (never a crash).
 *
 * The capped run is captured as a RunReport (BENCH_fork_storm.json)
 * whose run block carries the lifecycle counters: states_merged,
 * states_spilled, states_restored, spill_bytes, spill_retries,
 * resident_states_peak.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/engine.hh"
#include "core/state.hh"
#include "obs/report.hh"
#include "plugins/searchers.hh"
#include "support/logging.hh"
#include "vm/devices.hh"

using namespace s2e;

namespace {

/**
 * 2^bits-path fork storm; each path grinds a tiny private loop. With
 * merge_prologue the program first forks on three bits of r1 and
 * folds the eight siblings back into one ITE survivor at an
 * s2e_merge_point before the storm proper — one run then demonstrates
 * merging and spilling together.
 */
std::string
stormSource(unsigned bits, bool merge_prologue)
{
    std::string src = R"(
        .entry main
    main:
        movi sp, 0x8000
)";
    if (merge_prologue)
        src += R"(
        s2e_symreg r1
        movi r5, 0
        testi r1, 1
        jeq m0
        ori r5, 1
    m0: testi r1, 2
        jeq m1
        ori r5, 2
    m1: testi r1, 4
        jeq m2
        ori r5, 4
    m2: s2e_merge
)";
    src += R"(
        s2e_symreg r2
        movi r6, 0
)";
    for (unsigned b = 0; b < bits; ++b)
        src += strprintf("        testi r2, %u\n"
                         "        jeq b%u\n"
                         "        ori r6, %u\n"
                         "    b%u:\n",
                         1u << b, b, 1u << b, b);
    // Redundant re-tests of already-taken conditions plus a masked
    // bound check: branches every path crosses that never fork, each
    // decided by a solver query against the path constraints.
    for (unsigned b = 0; b < bits && b < 3; ++b)
        src += strprintf("        testi r2, %u\n"
                         "        jeq r%u\n"
                         "        ori r7, %u\n"
                         "    r%u:\n",
                         1u << b, b, 1u << b, b);
    src += R"(
        mov r8, r2
        andi r8, 255
        cmpi r8, 256
        jb masked
        movi r7, 99          ; statically unreachable
    masked:
        movi r3, 0
        movi r4, 0
    work:
        add r3, r6
        addi r4, 1
        cmpi r4, 6
        jne work
        hlt
    )";
    return src;
}

vm::MachineConfig
machineFor(const std::string &source)
{
    vm::MachineConfig m;
    m.ramSize = 64 * 1024;
    m.program = isa::assemble(source);
    m.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
    };
    return m;
}

/** Baseline footprint of an empty state on this machine; the resident
 *  cap is a small multiple of this so the governor is guaranteed to
 *  trip once a handful of states are live, regardless of how the
 *  accounting formula evolves. */
uint64_t
baseFootprint(const vm::MachineConfig &m)
{
    vm::DeviceSet devices;
    if (m.deviceSetup)
        m.deviceSetup(devices);
    core::ExecutionState probe(m.ramSize, devices);
    return probe.memoryFootprint();
}

struct StormRun {
    core::RunResult result;
    uint64_t memWatermark = 0;    ///< engine.memory_high_watermark
};

StormRun
runStorm(const std::string &source, unsigned workers, uint64_t cap,
         bool merge_points,
         const core::lifecycle::SpillFaultPolicy &faults = {},
         obs::RunReport *report = nullptr,
         std::unique_ptr<core::Searcher> searcher = nullptr)
{
    core::EngineConfig config;
    config.numWorkers = workers;
    config.maxResidentBytes = cap;
    config.enableMergePoints = merge_points;
    config.spillFaults = faults;
    core::Engine engine(machineFor(source), config);
    if (searcher)
        engine.setSearcher(std::move(searcher));
    StormRun out;
    out.result = engine.run();
    out.memWatermark = engine.stats().get("engine.memory_high_watermark");
    if (report)
        report->captureEngine(engine, out.result);
    return out;
}

void
printRun(const char *label, const StormRun &run)
{
    const core::RunResult &r = run.result;
    std::printf("%-28s %10.3f s  %6zu created  %6zu completed\n", label,
                r.wallSeconds, r.statesCreated, r.completed);
    std::printf("    merged %zu  spilled %llu  restored %llu  "
                "spill_bytes %llu  retries %llu\n",
                r.mergedStates,
                static_cast<unsigned long long>(r.statesSpilled),
                static_cast<unsigned long long>(r.statesRestored),
                static_cast<unsigned long long>(r.spillBytes),
                static_cast<unsigned long long>(r.spillRetries));
    std::printf("    resident peak %llu states  mem watermark %llu B  "
                "spill failures %zu\n",
                static_cast<unsigned long long>(r.residentStatesPeak),
                static_cast<unsigned long long>(run.memWatermark),
                r.spillFailures);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned workers = 4;
    unsigned bits = 12; // 2^12 = 4096 storm paths
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
            workers = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (std::strcmp(argv[i], "--bits") == 0 && i + 1 < argc)
            bits = static_cast<unsigned>(std::atoi(argv[++i]));
    }

    std::setbuf(stdout, nullptr);
    std::printf("=== bounded-memory state lifecycle: fork storm ===\n\n");

    std::string source = stormSource(bits, /*merge_prologue=*/true);
    uint64_t footprint = baseFootprint(machineFor(source));
    uint64_t cap = 3 * footprint;
    size_t storm_paths = size_t(1) << bits;
    std::printf("storm paths                  %14zu  (plus an 8-way "
                "merge prologue)\n",
                storm_paths);
    std::printf("state base footprint         %14llu B\n",
                static_cast<unsigned long long>(footprint));
    std::printf("resident cap                 %14llu B  (3 footprints)\n\n",
                static_cast<unsigned long long>(cap));

    obs::RunReport report("bench_fork_storm");

    std::printf("--- all-resident oracle vs capped spill/merge run ---\n");
    // Breadth-first keeps the whole storm frontier resident; a
    // depth-first oracle finishes each path before forking the next
    // and never holds more than a dozen states.
    StormRun oracle =
        runStorm(source, 1, 0, true, {}, nullptr,
                 std::make_unique<plugins::BreadthFirstSearcher>());
    printRun("all-resident (1 worker)", oracle);
    StormRun capped = runStorm(source, workers, cap, true, {}, &report);
    printRun(strprintf("capped (%u workers)", workers).c_str(), capped);

    const core::RunResult &cr = capped.result;
    // The cap is bytes of *accounted* footprint, but each worker's
    // currently-running state can never spill, so the honest
    // bounded-memory claim is the watermark ratio against the
    // uncapped oracle, not a fixed multiple of the (deliberately
    // tiny) cap.
    double watermark_reduction =
        capped.memWatermark > 0
            ? double(oracle.memWatermark) / double(capped.memWatermark)
            : 0.0;
    report.setMetric("storm_paths", double(storm_paths));
    report.setMetric("base_footprint_bytes", double(footprint));
    report.setMetric("resident_cap_bytes", double(cap));
    report.setMetric("oracle_wall_seconds", oracle.result.wallSeconds);
    report.setMetric("capped_wall_seconds", cr.wallSeconds);
    report.setMetric("capped_workers", double(workers));
    report.setMetric("paths_completed_match",
                     oracle.result.completed == cr.completed ? 1.0 : 0.0);
    report.setMetric("memory_high_watermark_bytes",
                     double(capped.memWatermark));
    report.setMetric("uncapped_memory_high_watermark_bytes",
                     double(oracle.memWatermark));
    report.setMetric("memory_watermark_reduction_x", watermark_reduction);

    // Spill-I/O resilience at a smaller path count (the fault draws
    // hit every op, so the interesting part is the ladder, not scale).
    unsigned fault_bits = bits >= 7 ? 7 : bits;
    std::string fault_src = stormSource(fault_bits, false);
    size_t fault_paths = size_t(1) << fault_bits;

    std::printf("\n--- spill fault injection (2^%u paths, capped) ---\n",
                fault_bits);
    core::lifecycle::SpillFaultPolicy transient;
    transient.enabled = true;
    transient.faultRate = 1.0;
    transient.kind = core::lifecycle::SpillFaultPolicy::Kind::ShortWrite;
    transient.persistent = false;
    StormRun absorbed = runStorm(fault_src, workers, cap, false, transient);
    printRun("transient short writes", absorbed);

    core::lifecycle::SpillFaultPolicy broken;
    broken.enabled = true;
    broken.faultRate = 1.0;
    broken.kind = core::lifecycle::SpillFaultPolicy::Kind::ShortRead;
    broken.persistent = true;
    StormRun killed = runStorm(fault_src, workers, cap, false, broken);
    printRun("persistent short reads", killed);

    const core::RunResult &ar = absorbed.result;
    const core::RunResult &kr = killed.result;
    bool transient_absorbed = ar.spillFailures == 0 &&
                              ar.spillRetries > 0 &&
                              ar.completed == fault_paths;
    bool kills_accounted = kr.spillFailures > 0 &&
                           kr.completed + kr.spillFailures + kr.crashed +
                                   kr.aborted ==
                               kr.statesCreated;
    report.setMetric("transient_spill_retries", double(ar.spillRetries));
    report.setMetric("transient_spill_failures",
                     double(ar.spillFailures));
    report.setMetric("transient_faults_absorbed",
                     transient_absorbed ? 1.0 : 0.0);
    report.setMetric("persistent_spill_failures",
                     double(kr.spillFailures));
    report.setMetric("persistent_kills_accounted",
                     kills_accounted ? 1.0 : 0.0);

    report.writeBenchFile();

    std::printf("\nShape check: >= %zu paths explored under the cap: %s\n",
                storm_paths,
                cr.statesCreated >= storm_paths ? "YES" : "NO");
    std::printf("Shape check: capped run completes the oracle's path "
                "count: %s\n",
                cr.completed == oracle.result.completed ? "YES" : "NO");
    std::printf("Shape check: merge prologue folded siblings "
                "(states_merged > 0): %s\n",
                cr.mergedStates > 0 ? "YES" : "NO");
    std::printf("Shape check: governor spilled and restored states "
                "(both > 0): %s\n",
                cr.statesSpilled > 0 && cr.statesRestored > 0 ? "YES"
                                                              : "NO");
    std::printf("Shape check: no spill failures without injected "
                "faults: %s\n",
                cr.spillFailures == 0 ? "YES" : "NO");
    std::printf("Shape check: resident-state peak bounded (<= 64 of "
                "%zu states): %s\n",
                cr.statesCreated,
                cr.residentStatesPeak <= 64 ? "YES" : "NO");
    std::printf("Shape check: memory watermark >= 20x below the "
                "uncapped oracle (%.0fx): %s\n",
                watermark_reduction,
                watermark_reduction >= 20.0 ? "YES" : "NO");
    std::printf("Resilience check: transient write faults absorbed by "
                "retry: %s\n",
                transient_absorbed ? "YES" : "NO");
    std::printf("Resilience check: persistent restore faults kill "
                "cleanly, accounting exact: %s\n",
                kills_accounted ? "YES" : "NO");
    return 0;
}
