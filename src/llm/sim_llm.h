#pragma once
// The simulated LLM.
//
// SimLlm implements, explicitly and deterministically, the mechanisms that
// the paper's phenomena rest on:
//
//  * grounded mode (contexts supplied): extractive composition over the
//    attended contexts — answer quality is a function of whether the
//    decisive document made it into the attention window (top L = 4);
//  * caveat behaviour: a question about a symbol the contexts never mention
//    yields "there is no such function" (the RAG-side KSPBurb response);
//  * parametric mode (no contexts): popularity-gated recall of the spec
//    table — high-exposure topics answered well, mid-exposure partially,
//    low-exposure topics produce confident fabrications (the baseline-side
//    KSPBurb response);
//  * a calibrated token-rate latency model (no real time passes).
//
// Everything is deterministic given (model config, request).

#include "llm/model_config.h"
#include "llm/types.h"
#include "resilience/fault_plan.h"
#include "util/rng.h"

namespace pkb::llm {

class SimLlm {
 public:
  explicit SimLlm(LlmConfig config);

  [[nodiscard]] const LlmConfig& config() const { return config_; }

  /// Attach a chaos plan consulted (Stage::Llm) at each complete() entry:
  /// error decisions throw the matching resilience::FaultError, latency
  /// spikes inflate the response's simulated latency. Pass nullptr to
  /// detach. Setup-time only — must not race in-flight complete() calls.
  void set_fault_plan(const pkb::resilience::FaultPlan* plan) {
    fault_plan_ = plan;
  }

  /// Run one completion.
  [[nodiscard]] LlmResponse complete(const LlmRequest& request) const;

 private:
  struct Draft {
    std::string text;
    std::string mode;
    std::vector<std::string> used_context_ids;
  };

  [[nodiscard]] Draft answer_grounded(const LlmRequest& request,
                                      pkb::util::Rng& rng) const;
  [[nodiscard]] Draft answer_parametric(const LlmRequest& request,
                                        pkb::util::Rng& rng) const;

  LlmConfig config_;
  const pkb::resilience::FaultPlan* fault_plan_ = nullptr;
};

}  // namespace pkb::llm
