/**
 * @file
 * RunReport: one machine-readable summary per engine run, serialized
 * to the stable `s2e.run_report.v1` JSON schema (see DESIGN.md,
 * "Observability"). Aggregates the RunResult, the phase-time
 * breakdown (the paper's Fig 9 fractions), every engine and solver
 * stat, per-state summaries, plus bench-specific metrics/series. All
 * bench_* harnesses emit one as BENCH_<name>.json so perf trajectories
 * accumulate across commits.
 */

#ifndef S2E_OBS_REPORT_HH
#define S2E_OBS_REPORT_HH

#include <map>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "obs/profiler.hh"

namespace s2e::obs {

class RunReport
{
  public:
    /** One row of the phase-time breakdown. */
    struct PhaseRow {
        std::string name;
        uint64_t spans = 0;
        double seconds = 0;
        /** Of the pool's time: workers × the run's wall time. */
        double fraction = 0;
    };

    /** Terminal summary of one execution state. */
    struct StateRow {
        int id = 0;
        int parent = -1;
        std::string path; ///< deterministic path id ("0.2.1")
        std::string status;
        std::string message;
        uint64_t instructions = 0;
        uint64_t symInstructions = 0;
        uint64_t blocks = 0;
        bool degraded = false;
        uint32_t exitCode = 0;
    };

    explicit RunReport(std::string name) : name_(std::move(name)) {}

    /** Snapshot an engine after run(): RunResult, phase breakdown,
     *  engine + solver stats, per-state summaries. */
    void captureEngine(core::Engine &engine, const core::RunResult &run);

    /** Bench-specific scalar (e.g. coverage, overhead factor). */
    void setMetric(const std::string &name, double value)
    {
        metrics_[name] = value;
    }

    /** Bench-specific series (e.g. a coverage timeline). */
    void setSeries(const std::string &name, std::vector<double> values)
    {
        series_[name] = std::move(values);
    }

    void addNote(const std::string &note) { notes_.push_back(note); }

    const std::string &name() const { return name_; }
    const std::vector<PhaseRow> &phases() const { return phases_; }
    const std::vector<StateRow> &states() const { return states_; }
    double wallSeconds() const { return wallSeconds_; }

    /** Sum of all phase fractions (≤ 1.0 by construction: phases are
     *  charged exclusively per worker, see profiler.hh, and at most
     *  `workers` threads run at once). */
    double phaseFractionSum() const;

    std::string toJson() const;

    /** Serialize to `path`; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

    /** Convention used by the bench harnesses: BENCH_<suffix>.json in
     *  the current directory, suffix = bench name minus "bench_". */
    bool writeBenchFile() const;

  private:
    std::string name_;
    double wallSeconds_ = 0;
    bool hasRun_ = false;
    core::RunResult run_;
    std::vector<PhaseRow> phases_;
    std::map<std::string, uint64_t> engineCounters_;
    std::map<std::string, double> engineTimers_;
    std::map<std::string, uint64_t> solverCounters_;
    std::map<std::string, double> solverTimers_;
    std::vector<StateRow> states_;
    std::map<std::string, double> metrics_;
    std::map<std::string, std::vector<double>> series_;
    std::vector<std::string> notes_;
};

} // namespace s2e::obs

#endif // S2E_OBS_REPORT_HH
