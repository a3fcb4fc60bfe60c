/**
 * @file
 * One benchmark exploration in one process: set a workload up several
 * times (timing each), explore the last one, and print the raw
 * measurements as a single JSON line. perfbench/run.py drives repeated
 * processes, checks the outputs and turns the raw numbers into
 * metrics.
 *
 *   perfbench --workload sym_alu|ddt_pcnet --seed N
 *             [--searcher-seed S] --out-dir DIR [--trace FILE]
 *
 * With --trace the run also records fork/kill instants, runs the
 * per-layer ladder after exploring and writes FILE as Chrome
 * trace-event JSON.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ladder.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace s2e;
using namespace perfbench;

namespace {

/** Set-ups timed per process: at least kMinSetups, and more until
 *  kSetupSeconds have passed. One set-up takes about a millisecond on
 *  ddt_pcnet and well under one on sym_alu. A run starts dozens of
 *  processes, so its set-up samples are spread over the whole run;
 *  run.py reports the median of all. */
constexpr unsigned kMinSetups = 15;
constexpr double kSetupSeconds = 0.2;

struct Args {
    std::string workload;
    uint64_t seed = 42;
    uint64_t searcherSeed = 42;
    std::string outDir = ".";
    std::string tracePath;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--searcher-seed")
            a.searcherSeed = std::strtoull(v, nullptr, 10);
        else if (flag == "--out-dir")
            a.outDir = v;
        else if (flag == "--trace")
            a.tracePath = v;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    return a;
}

/** FNV-1a over the sorted path ids of halted states. */
std::string
haltedDigest(core::Engine &engine)
{
    std::vector<std::string> ids;
    for (const auto &s : engine.allStates())
        if (s->status == core::StateStatus::Halted)
            ids.push_back(s->pathId());
    std::sort(ids.begin(), ids.end());
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string &id : ids)
        for (char ch : id + "\n")
            h = (h ^ static_cast<uint8_t>(ch)) * 0x100000001b3ULL;
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Aggregate stamps into at most kBins count instants over [lo, hi]. */
void
binnedInstants(Trace &trace, const std::string &name,
               const std::vector<double> &stamps, double lo, double hi,
               int parent)
{
    constexpr int kBins = 32;
    std::vector<uint64_t> counts(kBins, 0);
    double width = std::max(hi - lo, 1e-9) / kBins;
    for (double t : stamps) {
        int b = static_cast<int>((t - lo) / width);
        counts[std::clamp(b, 0, kBins - 1)]++;
    }
    for (int b = 0; b < kBins; ++b)
        if (counts[b])
            trace.instant(name, lo + b * width, parent,
                          {{"count", counts[b]}});
}

int
run(const Args &args)
{
    Clock clock; // trace time base
    Trace trace(clock);
    bool tracing = !args.tracePath.empty();
    std::optional<Trace::Span> root;
    root.emplace(trace, "workload " + args.workload);

    std::unique_ptr<Session> session;
    std::vector<double> setups;
    Clock start; // the kept set-up's start: origin of kill stamps
    {
        Trace::Span span(trace, "setup");
        Clock budget;
        while (setups.size() < kMinSetups ||
               budget.seconds() < kSetupSeconds) {
            session.reset(); // tear-down stays outside the timed region
            start = Clock();
            session = std::make_unique<Session>(args.workload, args.seed,
                                                args.searcherSeed);
            setups.push_back(start.seconds());
        }
    }

    std::mutex mu;
    std::vector<std::pair<int, double>> kills;
    std::vector<double> forks;
    core::EventHub &events = session->engine().events();
    events.onStateKill.subscribe([&](core::ExecutionState &s) {
        double t = start.seconds();
        std::lock_guard<std::mutex> lock(mu);
        kills.push_back({s.id(), t});
    });
    if (tracing)
        events.onExecutionFork.subscribe([&](const core::ForkInfo &) {
            double t = start.seconds();
            std::lock_guard<std::mutex> lock(mu);
            forks.push_back(t);
        });

    std::vector<tools::DdtBug> bugs;
    core::RunResult r;
    double explore_s = 0;
    double explore_start = start.seconds();
    int explore_span = 0;
    {
        Trace::Span span(trace, "explore");
        explore_span = span.id();
        Clock c;
        r = session->explore(&bugs);
        explore_s = c.seconds();
    }
    core::Engine &engine = session->engine();
    // Kill stamps of the states that carry a bug report; run.py joins
    // them with the reports into time_to_last_bug_s.
    std::map<int, double> bug_kills;
    for (const auto &[id, t] : kills)
        bug_kills[id] = t;
    std::erase_if(bug_kills, [&](const auto &kv) {
        return std::none_of(bugs.begin(), bugs.end(), [&](const auto &b) {
            return b.stateId == kv.first;
        });
    });

    Metrics layers;
    if (tracing) {
        // Kill stamps are relative to `start`; the trace uses `clock`.
        double shift = clock.seconds() - start.seconds();
        std::vector<double> kill_t, fork_t;
        for (const auto &[id, t] : kills)
            kill_t.push_back(t + shift);
        for (double t : forks)
            fork_t.push_back(t + shift);
        double lo = explore_start + shift;
        double hi = lo + explore_s;
        binnedInstants(trace, "fork", fork_t, lo, hi, explore_span);
        binnedInstants(trace, "kill", kill_t, lo, hi, explore_span);
        // One instant per bug class, at its first witnessed report.
        std::map<std::string, std::pair<double, uint64_t>> first;
        for (const auto &b : bugs) {
            auto it = bug_kills.find(b.stateId);
            double t = it == bug_kills.end() ? hi - shift : it->second;
            auto &slot = first.try_emplace(b.kind, t, 0).first->second;
            slot.first = std::min(slot.first, t);
            slot.second++;
        }
        for (const auto &[kind, v] : first)
            trace.instant("bug " + kind, v.first + shift, explore_span,
                          {{"reports", v.second}});
        runLadder(*session, args.seed, args.outDir, trace, layers);
    }

    obs::JsonWriter w;
    w.beginObject();
    w.field("workload", args.workload);
    w.field("seed", args.seed);
    w.field("searcher_seed", args.searcherSeed);
    w.key("setup_s").beginArray();
    for (double s : setups)
        w.value(s);
    w.endArray();
    w.field("explore_s", explore_s);
    double last_kill = 0;
    for (const auto &[id, t] : kills)
        last_kill = std::max(last_kill, t);
    w.field("last_kill_s", last_kill);
    w.key("bugs").beginArray();
    for (const auto &b : bugs)
        w.beginArray().value(b.kind).value(b.stateId).endArray();
    w.endArray();
    w.key("kills").beginObject();
    for (const auto &[id, t] : bug_kills)
        w.field(std::to_string(id), t);
    w.endObject();

    w.key("run").beginObject();
    w.field("instructions", r.totalInstructions);
    w.field("forks", r.forks);
    w.field("states_created", static_cast<uint64_t>(r.statesCreated));
    w.field("completed", static_cast<uint64_t>(r.completed));
    w.field("crashed", static_cast<uint64_t>(r.crashed));
    w.field("aborted", static_cast<uint64_t>(r.aborted));
    w.field("solver_failures", static_cast<uint64_t>(r.solverFailures));
    w.field("spill_failures", static_cast<uint64_t>(r.spillFailures));
    w.field("witnesses_emitted", r.witnessesEmitted);
    w.field("witness_extract_failures", r.witnessExtractFailures);
    w.field("killed_states", static_cast<uint64_t>(kills.size()));
    w.field("halted_digest", haltedDigest(engine));
    w.endObject();

    Stats &es = engine.stats();
    Stats &ss = engine.solver().stats();
    const obs::PhaseProfiler &prof = engine.profiler();
    w.key("counters").beginObject();
    w.field("phase_translate_s", prof.seconds(obs::Phase::Translate));
    w.field("phase_concrete_s", prof.seconds(obs::Phase::ConcreteExec));
    w.field("phase_symbolic_s", prof.seconds(obs::Phase::SymbolicExec));
    w.field("phase_solver_s", prof.seconds(obs::Phase::Solver));
    w.field("phase_fork_s", prof.seconds(obs::Phase::Fork));
    w.field("max_active_states", es.get("engine.max_active_states"));
    w.field("translations", es.get("engine.translations"));
    w.field("uops_executed", es.get("engine.uops_executed"));
    w.field("memory_high_watermark", es.get("engine.memory_high_watermark"));
    w.field("solver_queries", ss.get("solver.queries"));
    w.field("sat_queries", ss.get("solver.sat_queries"));
    w.field("ctx_reuses", ss.get("solver.ctx_reuses"));
    w.field("static_prunes", ss.get("absint.static_prunes"));
    w.field("expr_nodes", static_cast<uint64_t>(engine.builder().numNodes()));
    w.endObject();

    w.key("layers").beginObject();
    for (const auto &[name, value] : layers)
        w.field(name, value);
    w.endObject();
    w.endObject();

    root.reset(); // close the root span before writing the trace
    if (tracing && !trace.write(args.tracePath)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.tracePath.c_str());
        return 1;
    }
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
