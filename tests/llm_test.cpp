#include <gtest/gtest.h>

#include "corpus/api_spec.h"
#include "llm/hallucination.h"
#include "llm/model_config.h"
#include "llm/parametric.h"
#include "llm/sim_llm.h"
#include "util/json.h"
#include "util/strings.h"

namespace pkb::llm {
namespace {

LlmRequest grounded_request(std::string question,
                            std::vector<ContextDoc> contexts) {
  LlmRequest req;
  req.question = std::move(question);
  req.contexts = std::move(contexts);
  return req;
}

TEST(ModelConfig, RegistryResolvesAndUnknownThrows) {
  for (const std::string& name : model_registry()) {
    const LlmConfig cfg = model_config(name);
    EXPECT_EQ(cfg.name, name);
    EXPECT_GT(cfg.quality, 0.0);
    EXPECT_LE(cfg.quality, 1.0);
  }
  EXPECT_THROW((void)model_config("sim-gpt-5"), std::invalid_argument);
}

TEST(ModelConfig, StrongerModelsHaveMoreKnowledge) {
  EXPECT_GT(model_config("sim-gpt-4o").knowledge,
            model_config("sim-llama3-8b").knowledge);
}

TEST(Parametric, ResolvesExactSymbol) {
  const TopicMatch match =
      ParametricMemory::instance().resolve("What does KSPSolve return?");
  ASSERT_NE(match.spec, nullptr);
  EXPECT_EQ(match.spec->name, "KSPSolve");
  EXPECT_EQ(match.how, "symbol");
}

TEST(Parametric, ResolvesBareAlgorithmName) {
  const TopicMatch match = ParametricMemory::instance().resolve(
      "How do I change the GMRES restart parameter?");
  ASSERT_NE(match.spec, nullptr);
  EXPECT_EQ(match.spec->name, "KSPGMRES");
}

TEST(Parametric, ResolvesByContentWithoutSymbols) {
  const TopicMatch match = ParametricMemory::instance().resolve(
      "my matrix assembly is slow because of preallocation mallocs");
  ASSERT_NE(match.spec, nullptr);
  EXPECT_EQ(match.how, "keyword");
}

TEST(Parametric, UnknownSymbolReportsMiss) {
  const TopicMatch match =
      ParametricMemory::instance().resolve("What does KSPBurb do?");
  EXPECT_EQ(match.spec, nullptr);
  EXPECT_EQ(match.query_symbol, "KSPBurb");
}

TEST(Hallucination, MintedSymbolsAreNeverReal) {
  pkb::util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const std::string fake = mint_fake_symbol("KSPSolve", rng);
    EXPECT_FALSE(corpus::is_known_symbol(fake)) << fake;
  }
}

TEST(Hallucination, FabricationMentionsTheSymbolAndSoundsConfident) {
  pkb::util::Rng rng(2);
  const std::string text = fabricate_symbol_answer("KSPBurb", rng);
  EXPECT_NE(text.find("KSPBurb"), std::string::npos);
  EXPECT_NE(text.find("Krylov subspace method"), std::string::npos);
  // No hedging language.
  EXPECT_EQ(pkb::util::to_lower(text).find("i am not sure"),
            std::string::npos);
}

TEST(SimLlm, ParametricAnswersPopularTopicWell) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  LlmRequest req;
  req.question = "What is the default restart length of GMRES?";
  const LlmResponse resp = llm.complete(req);
  EXPECT_TRUE(resp.mode == "parametric" || resp.mode == "parametric-partial");
  EXPECT_NE(resp.text.find("KSPGMRES"), std::string::npos);
}

TEST(SimLlm, ParametricHallucinatesOnUnknownSymbol) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  LlmRequest req;
  req.question = "What does KSPBurb do?";
  const LlmResponse resp = llm.complete(req);
  EXPECT_EQ(resp.mode, "hallucination");
  EXPECT_NE(resp.text.find("KSPBurb"), std::string::npos);
}

TEST(SimLlm, GroundedUsesContextSentences) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  const LlmRequest req = grounded_request(
      "What solver handles rectangular matrices?",
      {{"doc1", "KSPLSQR",
        "KSPLSQR handles rectangular matrices via least squares. It is the "
        "pivotal solver for non-square systems.",
        0.9}});
  const LlmResponse resp = llm.complete(req);
  EXPECT_EQ(resp.mode, "grounded");
  EXPECT_NE(resp.text.find("KSPLSQR"), std::string::npos);
  EXPECT_NE(resp.text.find("rectangular"), std::string::npos);
  ASSERT_FALSE(resp.used_context_ids.empty());
  EXPECT_EQ(resp.used_context_ids[0], "doc1");
}

TEST(SimLlm, GroundedCaveatsOnSymbolAbsentFromContext) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  const LlmRequest req = grounded_request(
      "What does KSPBurb do?",
      {{"doc1", "KSP",
        "KSP solves linear systems with Krylov methods such as GMRES and "
        "CG.",
        0.5}});
  const LlmResponse resp = llm.complete(req);
  EXPECT_EQ(resp.mode, "grounded-caveat");
  EXPECT_NE(resp.text.find("no PETSc function or object named KSPBurb"),
            std::string::npos);
}

TEST(SimLlm, AttentionWindowLimitsContexts) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  std::vector<ContextDoc> contexts;
  for (int i = 0; i < 8; ++i) {
    contexts.push_back({"doc" + std::to_string(i), "",
                        "filler content about unrelated topics", 0.5});
  }
  // The decisive content sits at position 5 — beyond the window of 4.
  contexts[5].text =
      "KSPLSQR handles rectangular matrices via least squares.";
  LlmRequest req = grounded_request(
      "What solver handles rectangular least squares matrices?", contexts);
  req.max_attended_contexts = 4;
  const LlmResponse resp = llm.complete(req);
  EXPECT_EQ(resp.text.find("KSPLSQR"), std::string::npos)
      << "the model must not see past its attention window";
  // Moving it into the window changes the answer.
  std::swap(req.contexts[0], req.contexts[5]);
  const LlmResponse resp2 = llm.complete(req);
  EXPECT_NE(resp2.text.find("KSPLSQR"), std::string::npos);
}

TEST(SimLlm, DeterministicAcrossCalls) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  LlmRequest req;
  req.question = "How do I monitor the residual norm?";
  const LlmResponse a = llm.complete(req);
  const LlmResponse b = llm.complete(req);
  EXPECT_EQ(a.text, b.text);
  EXPECT_DOUBLE_EQ(a.latency_seconds, b.latency_seconds);
}

TEST(SimLlm, DifferentModelsDiverge) {
  LlmRequest req;
  req.question = "What does the ell parameter of BiCGStab(ell) control?";
  const LlmResponse a = SimLlm(model_config("sim-gpt-4o")).complete(req);
  const LlmResponse b = SimLlm(model_config("sim-llama3-8b")).complete(req);
  // Weaker model: lower knowledge; responses generally differ.
  EXPECT_NE(a.text, b.text);
}

TEST(SimLlm, LatencyModelScalesWithOutput) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  LlmRequest req;
  req.question = "What is the default restart length of GMRES?";
  const LlmResponse resp = llm.complete(req);
  EXPECT_GT(resp.latency_seconds, 0.5);
  EXPECT_LT(resp.latency_seconds, 60.0);
  EXPECT_GT(resp.completion_tokens, 0u);
  EXPECT_GT(resp.prompt_tokens, 0u);
}

TEST(SimLlm, JsonOutputModeParses) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  LlmRequest req = grounded_request(
      "What solver handles rectangular matrices?",
      {{"doc1", "KSPLSQR",
        "KSPLSQR handles rectangular matrices via least squares.", 0.9}});
  req.json_output = true;
  const LlmResponse resp = llm.complete(req);
  const pkb::util::Json obj = pkb::util::Json::parse(resp.text);
  EXPECT_TRUE(obj.is_object());
  ASSERT_NE(obj.find("answer"), nullptr);
  EXPECT_NE(obj.find("answer")->as_string().find("KSPLSQR"), std::string::npos);
  ASSERT_NE(obj.find("model"), nullptr);
  EXPECT_EQ(obj.find("model")->as_string(), "sim-gpt-4o");
  const pkb::util::Json* sources = obj.find("sources");
  ASSERT_NE(sources, nullptr);
  EXPECT_TRUE(sources->is_array());
}

}  // namespace
}  // namespace pkb::llm
