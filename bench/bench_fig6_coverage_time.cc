/**
 * @file
 * Figure 6 reproduction: basic-block coverage over time for REV+ on
 * the four drivers. The paper plots 90 minutes; here each driver gets
 * a compressed budget and the series is printed as rows (time in
 * seconds, coverage percent). The expected shape is a steep initial
 * rise that plateaus — most blocks are discovered early, as in the
 * paper's Fig 6.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/replay/replayer.hh"
#include "plugins/coverage.hh"
#include "guest/layout.hh"
#include "obs/report.hh"
#include "tools/ddt.hh"
#include "tools/rev.hh"

using namespace s2e;
using namespace s2e::tools;

int
main(int argc, char **argv)
{
    unsigned workers = 4;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
            workers = static_cast<unsigned>(std::atoi(argv[++i]));
    }

    std::setbuf(stdout, nullptr);
    const double kBudgetSeconds = 8.0;

    std::printf("=== Figure 6: REV+ basic-block coverage over time "
                "(%.0fs budget per driver) ===\n",
                kBudgetSeconds);

    obs::RunReport report("bench_fig6_coverage_time");
    uint64_t witnesses_emitted = 0, replayed = 0, replay_ok = 0;
    uint64_t replay_queries = 0, replay_instr = 0;
    double replay_wall = 0;
    for (guest::DriverKind kind : guest::allDriverKinds()) {
        RevConfig config;
        config.driver = kind;
        config.maxWallSeconds = kBudgetSeconds;
        config.maxInstructions = 4'000'000;
        config.emitWitnesses = true;
        Rev rev(config);
        RevResult result = rev.run();
        // Engine snapshot of the last driver; coverage timelines for
        // every driver ride along as series.
        report.captureEngine(rev.engine(), result.run);

        isa::Program program = driverProgram(kind);
        plugins::StaticBlocks blocks = plugins::staticBasicBlocks(
            program, guest::kDriverCode, guest::kDriverCodeEnd);
        // The timeline counts covered instructions; rescale the final
        // point to the block-coverage endpoint for a comparable axis.
        double final_cov = result.driverCoverage * 100;
        size_t final_instr = result.coverageTimeline.empty()
                                 ? 1
                                 : result.coverageTimeline.back().second;

        std::printf("\n%s (%zu static blocks, final %.0f%%):\n",
                    guest::driverName(kind), blocks.count(), final_cov);
        std::printf("  %8s %10s\n", "sec", "coverage");
        // Downsample to at most 12 rows.
        const auto &tl = result.coverageTimeline;
        size_t step = tl.size() > 12 ? tl.size() / 12 : 1;
        for (size_t i = 0; i < tl.size(); i += step) {
            double cov = final_cov * static_cast<double>(tl[i].second) /
                         static_cast<double>(final_instr);
            std::printf("  %8.2f %9.1f%%\n", tl[i].first, cov);
        }
        if (!tl.empty())
            std::printf("  %8.2f %9.1f%% (final)\n", tl.back().first,
                        final_cov);

        // Shape check: at least half of the final coverage arrives in
        // the first quarter of the run (steep rise then plateau).
        bool steep = false;
        for (const auto &[t, instr] : tl) {
            if (t <= kBudgetSeconds / 4 &&
                instr * 2 >= final_instr) {
                steep = true;
                break;
            }
        }
        std::printf("  steep-rise-then-plateau shape: %s\n",
                    steep ? "YES" : "NO");

        // Replay oracle spot check: re-execute a few recorded paths
        // concretely and verify they land on the recorded terminal.
        witnesses_emitted += result.run.witnessesEmitted;
        size_t sample = 0;
        for (const auto &w : rev.engine().witnesses()) {
            if (sample++ >= 3)
                break;
            RevConfig rc;
            rc.driver = kind;
            rc.replayWitness = w;
            Rev rrev(rc);
            RevResult rres = rrev.run();
            core::replay::ReplayResult v =
                core::replay::replayVerdict(rrev.engine());
            replayed++;
            replay_ok += v.ok ? 1 : 0;
            replay_queries += v.solverQueries;
            replay_instr += rres.run.totalInstructions;
            replay_wall += rres.run.wallSeconds;
            if (!v.ok)
                std::printf("  REPLAY DIVERGENCE (path %s): %s\n",
                            w->pathId.c_str(), v.divergence.c_str());
        }

        std::string name = guest::driverName(kind);
        report.setMetric(name + "_final_coverage",
                         result.driverCoverage);
        report.setMetric(name + "_steep_rise", steep ? 1.0 : 0.0);
        std::vector<double> secs, covered;
        for (const auto &[t, instr] : tl) {
            secs.push_back(t);
            covered.push_back(static_cast<double>(instr));
        }
        report.setSeries(name + "_timeline_seconds", std::move(secs));
        report.setSeries(name + "_timeline_covered", std::move(covered));
    }

    // Serial vs parallel: same driver, same instruction budget (so
    // both runs do the same exploration work), wall-clock compared.
    // On a multi-core host the parallel run should reach the same
    // coverage in well under the serial time; path sets are identical
    // by the differential suite either way.
    std::printf("\n=== serial vs parallel (%u workers, fixed "
                "instruction budget) ===\n",
                workers);
    auto timed_run = [](unsigned n) {
        RevConfig config;
        config.driver = guest::allDriverKinds()[0];
        config.maxWallSeconds = 0; // instruction budget only
        config.maxInstructions = 1'500'000;
        config.numWorkers = n;
        Rev rev(config);
        return rev.run();
    };
    RevResult serial_run = timed_run(1);
    RevResult parallel_run = timed_run(workers);
    double serial_secs = serial_run.run.wallSeconds;
    double serial_cov = serial_run.driverCoverage;
    double parallel_secs = parallel_run.run.wallSeconds;
    double parallel_cov = parallel_run.driverCoverage;
    double speedup = parallel_secs > 0 ? serial_secs / parallel_secs : 0;
    std::printf("  serial   (1 worker): %7.3f s, %.1f%% coverage\n",
                serial_secs, serial_cov * 100);
    std::printf("  parallel (%u workers): %6.3f s, %.1f%% coverage\n",
                workers, parallel_secs, parallel_cov * 100);
    // Budget kills land at scheduling-dependent points, so allow a small
    // coverage delta; unconstrained runs are path-set-identical (see
    // tests/test_parallel.cc).
    std::printf("  speedup: %.2fx; coverage parity: %s\n", speedup,
                parallel_cov + 0.05 >= serial_cov ? "YES" : "NO");
    report.setMetric("parallel_workers", double(workers));
    report.setMetric("serial_wall_seconds", serial_secs);
    report.setMetric("parallel_wall_seconds", parallel_secs);
    report.setMetric("parallel_speedup_x", speedup);
    report.setMetric("serial_coverage", serial_cov);
    report.setMetric("parallel_coverage", parallel_cov);

    double replay_ips =
        replay_wall > 0 ? double(replay_instr) / replay_wall : 0.0;
    std::printf("\nreplay oracle: %llu witnesses emitted, %llu replayed "
                "(%llu ok), %llu solver queries, %.0f instr/s\n",
                static_cast<unsigned long long>(witnesses_emitted),
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(replay_ok),
                static_cast<unsigned long long>(replay_queries),
                replay_ips);
    report.setMetric("witnesses_emitted", double(witnesses_emitted));
    report.setMetric("replayed_paths", double(replayed));
    report.setMetric("replay_ok", double(replay_ok));
    report.setMetric("replay_divergences", double(replayed - replay_ok));
    report.setMetric("replay_solver_queries", double(replay_queries));
    report.setMetric("replay_instr_per_sec", replay_ips);

    report.writeBenchFile();
    return 0;
}
