// Domain (b) of Fig 2 — "Documentation and tutorials": an assistant that
// scans the generated manual pages for gaps (missing synopsis, missing
// options, thin notes, missing cross-references), drafts an improved page
// with the LLM for the worst offenders, verifies any code in the draft with
// the postprocessor, and emits a merge-request-style review queue.
//
// This demonstrates the paper's "knowledge flow" direction: moving
// information from the unofficial knowledge base (FAQ/chapters) into the
// official manual pages, with every change going through human review.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/api_spec.h"
#include "corpus/generator.h"
#include "rag/prompts.h"
#include "rag/workflow.h"

namespace {

struct PageAudit {
  const pkb::corpus::ApiSpec* spec = nullptr;
  std::vector<std::string> gaps;
  int severity = 0;
};

PageAudit audit(const pkb::corpus::ApiSpec& spec) {
  PageAudit a;
  a.spec = &spec;
  if (spec.synopsis.empty() && spec.kind == pkb::corpus::ApiKind::Function) {
    a.gaps.push_back("missing synopsis");
    a.severity += 3;
  }
  if (spec.options.empty() &&
      (spec.kind == pkb::corpus::ApiKind::SolverType ||
       spec.kind == pkb::corpus::ApiKind::PcType)) {
    a.gaps.push_back("no options database keys documented");
    a.severity += 2;
  }
  if (spec.notes.size() < 2) {
    a.gaps.push_back("notes section is thin (single paragraph)");
    a.severity += 1;
  }
  if (spec.see_also.size() < 2) {
    a.gaps.push_back("fewer than two cross-references");
    a.severity += 1;
  }
  return a;
}

}  // namespace

int main() {
  using namespace pkb;

  std::printf("=== PETSc documentation assistant ===\n\n");
  std::printf("auditing %zu manual pages...\n", corpus::api_table().size());

  std::vector<PageAudit> audits;
  for (const corpus::ApiSpec& spec : corpus::api_table()) {
    PageAudit a = audit(spec);
    if (!a.gaps.empty()) audits.push_back(std::move(a));
  }
  std::sort(audits.begin(), audits.end(),
            [](const PageAudit& x, const PageAudit& y) {
              return x.severity > y.severity;
            });
  std::printf("%zu pages have documentation gaps.\n\n", audits.size());

  const rag::KnowledgeBase db =
      rag::KnowledgeBase::build(corpus::generate_corpus());
  const rag::AugmentedWorkflow workflow(db, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"));

  const std::size_t n_drafts = std::min<std::size_t>(3, audits.size());
  std::printf("drafting updates for the %zu worst pages (each draft enters "
              "the merge-request review queue):\n\n", n_drafts);

  std::size_t clean_drafts = 0;
  for (std::size_t i = 0; i < n_drafts; ++i) {
    const PageAudit& a = audits[i];
    std::printf("--- MR draft %zu: %s (severity %d) ---\n", i + 1,
                a.spec->name.c_str(), a.severity);
    for (const std::string& gap : a.gaps) {
      std::printf("  gap: %s\n", gap.c_str());
    }
    const std::string question =
        "Improve the documentation for " + a.spec->name +
        ": summarize what it does, when to use it, and its most important "
        "related options and functions.";
    const rag::WorkflowOutcome outcome = workflow.ask(question);
    std::printf("  draft notes addition:\n    %s\n",
                outcome.response.text.c_str());

    // ask() already verified any code in the draft (Sec III-E); only a
    // clean draft can enter review.
    if (outcome.processed.all_code_ok) {
      ++clean_drafts;
      std::printf("  code check: OK -> queued for human review\n\n");
    } else {
      std::printf("  code check: FAILED -> draft rejected automatically\n\n");
    }
  }

  std::printf("review queue: %zu of %zu drafts passed automatic checks; a "
              "human developer must approve each before the official "
              "knowledge base changes.\n",
              clean_drafts, n_drafts);
  return 0;
}
