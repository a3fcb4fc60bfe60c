/**
 * @file
 * Annotation plugin (paper §4.1): runs user callbacks when execution
 * reaches registered program counters. Callbacks may inject custom-
 * constrained symbolic values, rewrite registers, or kill the path —
 * this is how DDT+ implements its local-consistency interface
 * annotations (symbolify an environment API's return value subject to
 * the API contract).
 */

#ifndef S2E_PLUGINS_ANNOTATION_HH
#define S2E_PLUGINS_ANNOTATION_HH

#include <functional>
#include <map>
#include <mutex>

#include "plugins/plugin.hh"

namespace s2e::plugins {

/** Dispatches callbacks at annotated instruction addresses. */
class Annotation : public Plugin
{
  public:
    using Callback = std::function<void(ExecutionState &, Engine &)>;

    explicit Annotation(Engine &engine);

    const char *name() const override { return "annotation"; }

    /**
     * Invoke `cb` whenever the instruction at `pc` is about to
     * execute. Multiple callbacks per pc run in registration order.
     * Must be registered before the code is first translated (or call
     * Engine::flushTranslationCache afterwards).
     */
    void at(uint32_t pc, Callback cb);

    uint64_t hitCount(uint32_t pc) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = hits_.find(pc);
        return it == hits_.end() ? 0 : it->second;
    }

  private:
    std::multimap<uint32_t, Callback> callbacks_;
    // Workers of a parallel run count hits concurrently; the mutex
    // guards hits_ (callbacks_ is read-only once exploration starts).
    mutable std::mutex mu_;
    std::map<uint32_t, uint64_t> hits_;
};

} // namespace s2e::plugins

#endif // S2E_PLUGINS_ANNOTATION_HH
