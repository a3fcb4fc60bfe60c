/**
 * @file
 * BugCheck analyzer: the WinBugCheck equivalent (paper §4.1). Catches
 * guest kernel panics (execution reaching the kernel's panic routine),
 * guest crashes (faulting states) and bugs reported by other plugins,
 * collecting them into one report list. A bug's reproduction inputs
 * are its path's replay witness (EngineConfig::emitWitnesses): map
 * CrashRecord::stateId to the state's pathId, then to the witness.
 */

#ifndef S2E_PLUGINS_BUGCHECK_HH
#define S2E_PLUGINS_BUGCHECK_HH

#include <mutex>

#include "plugins/memchecker.hh"
#include "plugins/plugin.hh"

namespace s2e::plugins {

/** A bug and the path it happened on. */
struct CrashRecord {
    int stateId;
    std::string kind;
    std::string message;
    uint32_t pc;
};

class BugCheck : public Plugin
{
  public:
    struct Config {
        /** pc of the guest kernel's panic routine (0 = none). */
        uint32_t panicPc = 0;
    };

    explicit BugCheck(Engine &engine) : BugCheck(engine, Config()) {}
    BugCheck(Engine &engine, Config config);

    const char *name() const override { return "bug-check"; }

    /** Only safe to call after Engine::run() returns. */
    const std::vector<CrashRecord> &crashes() const { return crashes_; }

  private:
    void record(ExecutionState &state, const std::string &kind,
                const std::string &message);

    Config config_;
    // record() runs on worker threads (onBug/onStateKill fire wherever
    // the path executes); the mutex serialises the pushes.
    mutable std::mutex mu_;
    std::vector<CrashRecord> crashes_;
};

} // namespace s2e::plugins

#endif // S2E_PLUGINS_BUGCHECK_HH
