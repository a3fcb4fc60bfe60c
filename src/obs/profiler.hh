/**
 * @file
 * Phase profiler: nestable RAII spans over the engine's execution
 * phases (translate / concrete-exec / symbolic-exec / solver / fork)
 * with handle-based O(1) accounting — the observability backbone that
 * reproduces the paper's Fig 9 time-fraction breakdown per run.
 *
 * Accounting is *exclusive*: a span is charged only the wall time
 * during which it is the innermost open span, so the per-phase
 * fractions of one single-threaded run always sum to at most 1.0 of
 * wall time (time outside any span — scheduling, state sweeping — is
 * deliberately uncharged). Everything is inline and guarded by one
 * predictable branch; a disabled profiler costs a single load+test
 * per span, and building with -DS2E_OBS_DEFAULT_OFF=ON flips the
 * default so unconfigured runs pay nothing.
 */

#ifndef S2E_OBS_PROFILER_HH
#define S2E_OBS_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>

#include "support/stats.hh"

namespace s2e::obs {

/** Compile-time default for EngineConfig::profileExecution (see the
 *  S2E_OBS_DEFAULT_OFF CMake option). */
#ifdef S2E_OBS_DEFAULT_OFF
inline constexpr bool kProfilerDefaultEnabled = false;
#else
inline constexpr bool kProfilerDefaultEnabled = true;
#endif

/** The span taxonomy (see DESIGN.md "Observability"). */
enum class Phase : uint8_t {
    Translate,    ///< DBT: gisa -> micro-op IR, incl. translation hooks
    ConcreteExec, ///< translation-block execution (the default phase)
    SymbolicExec, ///< expression building / symbolic control flow
    Solver,       ///< constraint solving (solver::Solver::solveSat)
    Fork,         ///< state cloning + fork event dispatch
};
inline constexpr size_t kNumPhases = 5;

inline const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Translate: return "translate";
      case Phase::ConcreteExec: return "concrete";
      case Phase::SymbolicExec: return "symbolic";
      case Phase::Solver: return "solver";
      case Phase::Fork: return "fork";
    }
    return "?";
}

class PhaseProfiler
{
  public:
    /** Injectable monotonic-nanosecond source (tests use a fake). */
    using ClockFn = uint64_t (*)();

    struct PhaseStat {
        uint64_t spans = 0;          ///< times the phase was entered
        uint64_t exclusiveNanos = 0; ///< innermost-span wall time
    };

    explicit PhaseProfiler(bool enabled = kProfilerDefaultEnabled)
        : enabled_(enabled)
    {
    }

    bool enabled() const { return enabled_; }

    /** Toggle recording. Do not toggle while spans are open: an open
     *  PhaseSpan only pops if the profiler was enabled at entry. */
    void setEnabled(bool on) { enabled_ = on; }

    void
    push(Phase p)
    {
        if (!enabled_)
            return;
        charge(now_());
        if (depth_ < kMaxDepth) {
            stack_[depth_] = p;
            stats_[static_cast<size_t>(p)].spans++;
        }
        depth_++;
    }

    void
    pop()
    {
        if (!enabled_)
            return;
        charge(now_());
        if (depth_ > 0)
            depth_--;
    }

    const PhaseStat &
    stat(Phase p) const
    {
        return stats_[static_cast<size_t>(p)];
    }

    double
    seconds(Phase p) const
    {
        return static_cast<double>(stat(p).exclusiveNanos) * 1e-9;
    }

    /** Sum of all exclusive phase times. */
    double
    totalSeconds() const
    {
        uint64_t nanos = 0;
        for (const PhaseStat &s : stats_)
            nanos += s.exclusiveNanos;
        return static_cast<double>(nanos) * 1e-9;
    }

    void
    reset()
    {
        stats_ = {};
        depth_ = 0;
        last_ = 0;
    }

    /**
     * Fold a quiescent per-worker profiler's tallies into this one
     * (span counts and exclusive nanos add). After merging N workers
     * the summed phase seconds represent CPU time across the pool and
     * may legitimately exceed one wall-clock; RunReport normalizes by
     * wall * workers.
     */
    void
    mergeFrom(const PhaseProfiler &other)
    {
        for (size_t i = 0; i < kNumPhases; ++i) {
            stats_[i].spans += other.stats_[i].spans;
            stats_[i].exclusiveNanos += other.stats_[i].exclusiveNanos;
        }
    }

    /** Write absolute phase times/counts into a Stats registry as
     *  `<prefix>.<phase>` timers and `<prefix>.<phase>.spans`
     *  counters (set semantics: safe to flush repeatedly). */
    void
    flushTo(Stats &stats, const std::string &prefix) const
    {
        for (size_t i = 0; i < kNumPhases; ++i) {
            Phase p = static_cast<Phase>(i);
            std::string base = prefix + "." + phaseName(p);
            stats.setSeconds(base, seconds(p));
            stats.set(base + ".spans", stats_[i].spans);
        }
    }

    void
    setClockForTest(ClockFn fn)
    {
        now_ = fn;
        last_ = 0;
    }

  private:
    static constexpr size_t kMaxDepth = 32;

    static uint64_t
    steadyNanos()
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** Charge elapsed time to the innermost open span. Spans beyond
     *  kMaxDepth are counted for balance but charged nowhere. */
    void
    charge(uint64_t now)
    {
        if (depth_ > 0 && depth_ <= kMaxDepth)
            stats_[static_cast<size_t>(stack_[depth_ - 1])]
                .exclusiveNanos += now - last_;
        last_ = now;
    }

    bool enabled_;
    size_t depth_ = 0;
    uint64_t last_ = 0;
    ClockFn now_ = &steadyNanos;
    std::array<Phase, kMaxDepth> stack_{};
    std::array<PhaseStat, kNumPhases> stats_{};
};

/** RAII span. Safe to construct from a null profiler pointer. */
class PhaseSpan
{
  public:
    PhaseSpan(PhaseProfiler &profiler, Phase p)
        : profiler_(profiler.enabled() ? &profiler : nullptr)
    {
        if (profiler_)
            profiler_->push(p);
    }

    PhaseSpan(PhaseProfiler *profiler, Phase p)
        : profiler_(profiler && profiler->enabled() ? profiler : nullptr)
    {
        if (profiler_)
            profiler_->push(p);
    }

    ~PhaseSpan()
    {
        if (profiler_)
            profiler_->pop();
    }

    PhaseSpan(const PhaseSpan &) = delete;
    PhaseSpan &operator=(const PhaseSpan &) = delete;

  private:
    PhaseProfiler *profiler_;
};

} // namespace s2e::obs

#endif // S2E_OBS_PROFILER_HH
