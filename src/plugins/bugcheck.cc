#include "plugins/bugcheck.hh"

namespace s2e::plugins {

BugCheck::BugCheck(Engine &engine, Config config)
    : Plugin(engine), config_(config)
{
    if (config_.panicPc) {
        engine_.events().onInstrTranslation.subscribe(
            [this](ExecutionState &, uint32_t pc, const isa::Instruction &,
                   bool *mark) {
                if (pc == config_.panicPc)
                    *mark = true;
            });
        engine_.events().onInstrExecution.subscribe(
            [this](ExecutionState &state, uint32_t pc) {
                if (pc != config_.panicPc)
                    return;
                record(state, "kernel-panic",
                       "guest kernel panic routine reached");
                engine_.killState(state, core::StateStatus::Crashed,
                                  "kernel panic");
            });
    }

    engine_.events().onBug.subscribe(
        [this](ExecutionState &state, const std::string &message) {
            record(state, "bug", message);
        });

    engine_.events().onStateKill.subscribe([this](ExecutionState &state) {
        if (state.status == core::StateStatus::Crashed)
            record(state, "crash", state.statusMessage);
    });
}

void
BugCheck::record(ExecutionState &state, const std::string &kind,
                 const std::string &message)
{
    CrashRecord rec;
    rec.stateId = state.id();
    rec.kind = kind;
    rec.message = message;
    rec.pc = state.cpu.pc;
    std::lock_guard<std::mutex> lock(mu_);
    crashes_.push_back(std::move(rec));
}

} // namespace s2e::plugins
