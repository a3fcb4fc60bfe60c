#include "obs/report.hh"

#include <fstream>

#include "obs/json.hh"
#include "support/logging.hh"

namespace s2e::obs {

void
RunReport::captureEngine(core::Engine &engine, const core::RunResult &run)
{
    hasRun_ = true;
    run_ = run;
    wallSeconds_ = run.wallSeconds;

    // Phase seconds are pooled over the run's workers, so the time
    // they can cover is workers × wall-clock.
    phases_.clear();
    const PhaseProfiler &prof = engine.profiler();
    double pool_seconds = wallSeconds_ * run.workers;
    for (size_t i = 0; i < kNumPhases; ++i) {
        Phase p = static_cast<Phase>(i);
        PhaseRow row;
        row.name = phaseName(p);
        row.spans = prof.stat(p).spans;
        row.seconds = prof.seconds(p);
        row.fraction = pool_seconds > 0 ? row.seconds / pool_seconds : 0;
        phases_.push_back(row);
    }

    engineCounters_ = engine.stats().counters();
    engineTimers_ = engine.stats().timers();
    solverCounters_ = engine.solver().stats().counters();
    solverTimers_ = engine.solver().stats().timers();

    states_.clear();
    for (const auto &state : engine.allStates()) {
        StateRow row;
        row.id = state->id();
        row.parent = state->parentId();
        row.path = state->pathId();
        row.status = core::stateStatusName(state->status);
        row.message = state->statusMessage;
        row.instructions = state->instrCount;
        row.symInstructions = state->symInstrCount;
        row.blocks = state->blockCount;
        row.degraded = state->degraded;
        row.exitCode = state->exitCode;
        states_.push_back(row);
    }
}

double
RunReport::phaseFractionSum() const
{
    double sum = 0;
    for (const PhaseRow &row : phases_)
        sum += row.fraction;
    return sum;
}

std::string
RunReport::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "s2e.run_report.v1");
    w.field("name", name_);
    w.field("wall_seconds", wallSeconds_);

    if (hasRun_) {
        w.key("run").beginObject();
        w.field("total_instructions", run_.totalInstructions);
        w.field("total_blocks", run_.totalBlocks);
        w.field("forks", run_.forks);
        w.field("states_created", static_cast<uint64_t>(run_.statesCreated));
        w.field("completed", static_cast<uint64_t>(run_.completed));
        w.field("crashed", static_cast<uint64_t>(run_.crashed));
        w.field("aborted", static_cast<uint64_t>(run_.aborted));
        w.field("solver_failures",
                static_cast<uint64_t>(run_.solverFailures));
        w.field("degraded_states",
                static_cast<uint64_t>(run_.degradedStates));
        w.field("states_merged",
                static_cast<uint64_t>(run_.mergedStates));
        w.field("spill_failures",
                static_cast<uint64_t>(run_.spillFailures));
        w.field("states_spilled", run_.statesSpilled);
        w.field("states_restored", run_.statesRestored);
        w.field("spill_bytes", run_.spillBytes);
        w.field("spill_retries", run_.spillRetries);
        w.field("resident_states_peak", run_.residentStatesPeak);
        w.field("budget_exhausted", run_.budgetExhausted);
        w.field("workers", run_.workers);
        w.key("worker_busy_seconds").beginArray();
        for (double busy : run_.workerBusySeconds)
            w.value(busy);
        w.endArray();
        // Fraction of the run's wall time each worker spent executing
        // states (vs idling in the work queue).
        w.key("worker_utilization").beginArray();
        for (double busy : run_.workerBusySeconds)
            w.value(wallSeconds_ > 0 ? busy / wallSeconds_ : 0.0);
        w.endArray();
        w.endObject();
    }

    w.key("phases").beginArray();
    for (const PhaseRow &row : phases_) {
        w.beginObject();
        w.field("name", row.name);
        w.field("spans", row.spans);
        w.field("seconds", row.seconds);
        w.field("fraction", row.fraction);
        w.endObject();
    }
    w.endArray();

    auto emitStats = [&w](const char *label,
                          const std::map<std::string, uint64_t> &counters,
                          const std::map<std::string, double> &timers) {
        w.key(label).beginObject();
        w.key("counters").beginObject();
        for (const auto &[name, value] : counters)
            w.field(name, value);
        w.endObject();
        w.key("timers_seconds").beginObject();
        for (const auto &[name, value] : timers)
            w.field(name, value);
        w.endObject();
        w.endObject();
    };
    emitStats("engine", engineCounters_, engineTimers_);
    emitStats("solver", solverCounters_, solverTimers_);

    w.key("states").beginArray();
    for (const StateRow &row : states_) {
        w.beginObject();
        w.field("id", static_cast<int64_t>(row.id));
        w.field("parent", static_cast<int64_t>(row.parent));
        w.field("path", row.path);
        w.field("status", row.status);
        w.field("message", row.message);
        w.field("instructions", row.instructions);
        w.field("sym_instructions", row.symInstructions);
        w.field("blocks", row.blocks);
        w.field("degraded", row.degraded);
        w.field("exit_code", static_cast<uint64_t>(row.exitCode));
        w.endObject();
    }
    w.endArray();

    w.key("metrics").beginObject();
    for (const auto &[name, value] : metrics_)
        w.field(name, value);
    w.endObject();

    w.key("series").beginObject();
    for (const auto &[name, values] : series_) {
        w.key(name).beginArray();
        for (double v : values)
            w.value(v);
        w.endArray();
    }
    w.endObject();

    w.key("notes").beginArray();
    for (const std::string &note : notes_)
        w.value(note);
    w.endArray();

    w.endObject();
    return w.str();
}

bool
RunReport::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson() << "\n";
    return static_cast<bool>(out);
}

bool
RunReport::writeBenchFile() const
{
    std::string suffix = name_;
    if (suffix.rfind("bench_", 0) == 0)
        suffix = suffix.substr(6);
    std::string path = "BENCH_" + suffix + ".json";
    bool ok = writeFile(path);
    if (ok)
        inform("run report written to %s", path.c_str());
    else
        warn("failed to write run report %s", path.c_str());
    return ok;
}

} // namespace s2e::obs
