#include "plugins/annotation.hh"

namespace s2e::plugins {

Annotation::Annotation(Engine &engine) : Plugin(engine)
{
    engine_.events().onInstrTranslation.subscribe(
        [this](ExecutionState &, uint32_t pc, const isa::Instruction &,
               bool *mark) {
            if (callbacks_.count(pc))
                *mark = true;
        });
    engine_.events().onInstrExecution.subscribe(
        [this](ExecutionState &state, uint32_t pc) {
            auto range = callbacks_.equal_range(pc);
            if (range.first == range.second)
                return;
            {
                std::lock_guard<std::mutex> lock(mu_);
                hits_[pc]++;
            }
            for (auto it = range.first; it != range.second; ++it)
                it->second(state, engine_);
        });
}

void
Annotation::at(uint32_t pc, Callback cb)
{
    callbacks_.emplace(pc, std::move(cb));
}

} // namespace s2e::plugins
